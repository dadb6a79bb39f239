// Package netsim models the interconnect of a simulated grid.
//
// A Network is a set of nodes grouped into sites. Within a site, nodes talk
// over one or more LAN protocols (e.g. TCP over 100 Mb Ethernet, Myrinet,
// SCI); between sites, traffic goes through each site's uplink (which may be
// asymmetric, as with the ADSL site of the paper's second grid). A message
// experiences serialisation delay at the path's bottleneck bandwidth —
// messages from the same node on the same protocol queue behind each other —
// plus the path's propagation latency.
//
// The model intentionally stops at first-order effects (latency, bandwidth,
// egress queueing, asymmetry, reachability): these are the effects the paper
// attributes its results to. Per-message CPU costs (packing, marshaling,
// thread dispatch) belong to the middleware layer (internal/env).
//
// A Send allocates nothing in steady state. The message is the des.Handler
// of its own events — its arrival at a shared destination segment, its
// delivery — so no closure carries it through the scheduler, and it goes
// back on the network's free list when its deliver callback returns; the
// per-pair FIFO clamp and the egress pipes are per-node slices, not maps; a
// SendOpt is a value. The deliver callback is stored in the message: a
// caller that sends many (envcore) passes the same func value every time
// and builds nothing per send.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"aiac/internal/des"
)

// TCP is the protocol name every site supports; other protocols (e.g.
// "myrinet", "sci") are optional per site.
const TCP = "tcp"

// LinkClass describes a physical link technology.
// Bandwidths are in bytes per second; UpBps is the rate for traffic leaving
// the site (or node), DownBps for traffic entering it. Symmetric links set
// both to the same value.
type LinkClass struct {
	Name    string
	Latency des.Time
	UpBps   float64
	DownBps float64
	// Shared marks a half-duplex shared-medium LAN (2004 10 Mb Ethernet
	// on hubs): all transfers touching the segment serialise on one
	// pipe, so the simultaneous bursts of a synchronous algorithm
	// collide while the staggered traffic of an asynchronous one flows.
	// Switched LANs (100 Mb Ethernet, Myrinet, SCI) are not shared.
	Shared bool
}

// Symmetric returns a LinkClass with equal up and down bandwidth.
func Symmetric(name string, latency des.Time, bps float64) LinkClass {
	return LinkClass{Name: name, Latency: latency, UpBps: bps, DownBps: bps}
}

// Scaled returns the link with bandwidth divided by bwDiv and latency
// multiplied by latMul, keeping the name (and hence the egress-pipe
// identity) unchanged. It is the building block of link-degradation
// scenarios: swapping a site's uplink for a Scaled copy at virtual time t
// changes the path parameters of every message sent after t while messages
// already in flight keep their send-time schedule.
func (lc LinkClass) Scaled(bwDiv, latMul float64) LinkClass {
	if bwDiv <= 0 || latMul <= 0 {
		panic("netsim: link scale factors must be positive")
	}
	lc.UpBps /= bwDiv
	lc.DownBps /= bwDiv
	lc.Latency = des.Time(float64(lc.Latency) * latMul)
	return lc
}

// Common link technologies used by the paper's grids.
var (
	// Ethernet10 is the 10 Mb/s Ethernet of the 3-site grid, modelled as
	// switched (one collision domain per port).
	Ethernet10 = Symmetric("ethernet10", 1*time.Millisecond, 10e6/8)
	// Ethernet10Hub is the same technology on a shared hub: one
	// collision domain per site. Used by the shared-medium ablation.
	Ethernet10Hub = LinkClass{Name: "ethernet10hub", Latency: 1 * time.Millisecond, UpBps: 10e6 / 8, DownBps: 10e6 / 8, Shared: true}
	// Ethernet100 is the 100 Mb/s Ethernet of the local cluster.
	Ethernet100 = Symmetric("ethernet100", 100*time.Microsecond, 100e6/8)
	// ADSL is the asymmetric access link of the fourth site:
	// 512 kb/s receive, 128 kb/s send (paper §5.1).
	ADSL = LinkClass{Name: "adsl", Latency: 30 * time.Millisecond, UpBps: 128e3 / 8, DownBps: 512e3 / 8}
	// Myrinet and SCI are fast SAN protocols usable intra-site by
	// multi-protocol middleware (MPICH/Madeleine).
	Myrinet = Symmetric("myrinet", 10*time.Microsecond, 2e9/8)
	SCI     = Symmetric("sci", 5*time.Microsecond, 1.6e9/8)
	// WAN latency added between distinct sites on top of the uplinks.
	interSiteLatency = 10 * time.Millisecond
)

// Site is a group of nodes sharing LAN connectivity and one uplink.
type Site struct {
	Name   string
	Uplink LinkClass
	// LANs lists the protocols available inside the site. The first
	// entry is the default; TCP must be present.
	LANs []LinkClass
}

// lan resolves a protocol name to one of the site's LANs. The default LAN
// (first entry) answers to "tcp" regardless of its technology name.
func (s *Site) lan(proto string) (LinkClass, bool) {
	if proto == "" || proto == TCP {
		return s.LANs[0], true
	}
	for _, lc := range s.LANs {
		if lc.Name == proto {
			return lc, true
		}
	}
	return LinkClass{}, false
}

// defaultLAN returns the site's first (default) LAN.
func (s *Site) defaultLAN() LinkClass { return s.LANs[0] }

// Node is one machine's network attachment point.
type Node struct {
	ID   int
	Site int
}

// Message is an in-flight network message. It is the des.Handler of its
// own events (see Fire), so no closure carries it to the scheduler and
// back, and it is recycled: the *Message handed to the deliver callback is
// valid only until the callback returns, after which the network reuses it
// for a later Send. A callback copies what it keeps.
type Message struct {
	From, To  int
	Bytes     int
	Payload   any
	Proto     string
	SentAt    des.Time
	DeliverAt des.Time
	// Dropped marks a message lost to the loss model or to a down
	// endpoint. Dropped messages are still handed to the deliver callback
	// at their would-be arrival time — with Dropped set — so senders can
	// release flow-control state on the same schedule as a real loss
	// detection; receivers must discard the payload.
	Dropped bool

	net     *Network
	deliver func(*Message)
	// ser and seg are what the store-and-forward stage needs on arrival
	// at a shared destination segment: the serialisation time and the
	// segment's pipe, both fixed when the message was sent — a SetLANs
	// while it is in flight does not reroute it.
	ser des.Time
	seg *pipe
	// next links the message into the network's free list while it is not
	// in flight.
	next *Message
}

// The events of a message, as arguments to Fire.
const (
	// stageDeliver is the arrival at the destination node.
	stageDeliver uint64 = iota
	// stageSegment is the arrival at a shared destination segment, which
	// the message must still cross.
	stageSegment
)

// Fire runs one scheduled stage of the message's journey.
//
//lint:hotpath
func (m *Message) Fire(stage uint64) {
	n := m.net
	if stage == stageSegment {
		_, segEnd := m.seg.reserve(n.sim.Now(), m.ser)
		n.finish(m, segEnd)
		return
	}
	n.inFlight--
	if n.lost(m.From, m.To) {
		// Endpoint crashed or uplink cut while in flight.
		m.Dropped = true
	}
	if m.Dropped {
		n.stats.Dropped++
	}
	m.deliver(m)
	n.release(m)
}

// release puts a delivered message on the free list.
//
//lint:hotpath
func (n *Network) release(m *Message) {
	*m = Message{net: n, next: n.free}
	if poisonReleased {
		poison(m)
	}
	n.free = m
}

// poisonReleased makes release overwrite every message it takes back with
// sentinels, so that a read after release cannot go unnoticed. Only tests
// set it (export_test.go).
var poisonReleased bool

// poison overwrites a released message with values no live message has.
func poison(m *Message) {
	m.From, m.To, m.Bytes = -1, -1, -1
	m.Proto = "released"
	m.SentAt, m.DeliverAt, m.ser = -1, -1, -1
	m.Dropped = true
}

// message returns a message from the free list, or a new one; Send sets
// every field.
func (n *Network) message() *Message {
	m := n.free
	if m == nil {
		return new(Message)
	}
	n.free = m.next
	return m
}

// Stats aggregates traffic counters.
type Stats struct {
	Messages    uint64
	Bytes       uint64
	InterSite   uint64
	IntraSite   uint64
	Dropped     uint64
	MaxInFlight int
}

// Network is the simulated interconnect.
//
// LANs, loss rate, node liveness, and site partitions are mutable at
// virtual time (SetLANs, SetLoss, SetDown, SetPartitioned):
// mutations apply to messages sent after the mutation instant, while
// in-flight messages keep the schedule computed when they were sent —
// except that a message whose path is severed at its arrival instant (an
// endpoint down, or a cut uplink on an inter-site path) is dropped: the
// connection died with the link.
type Network struct {
	sim   *des.Simulator
	sites []Site
	nodes []Node
	// nodePipes[node] are the node's own NIC pipes and segPipes[site] the
	// site's shared-segment pipes, one per protocol name seen so far (a
	// handful at most: a linear scan beats hashing the name).
	nodePipes [][]namedPipe
	segPipes  [][]namedPipe
	blocked   map[[2]int]bool // site pairs with no direct visibility
	stats     Stats
	inFlight  int
	free      *Message // delivered messages, reused by the next Sends

	down        map[int]bool // nodes currently crashed
	partitioned map[int]bool // sites whose uplink is currently cut

	// lastDeliver enforces per-(from,to) FIFO delivery. The middlewares
	// modelled here run their point-to-point channels over TCP, whose
	// byte stream cannot reorder — and the engine's convergence
	// confirmation protocol depends on that ("a confirmation guarantees
	// no older data is still in flight"). Without the clamp, a link
	// restored mid-scenario would let messages sent after the restore
	// overtake slow in-flight ones from during the degradation.
	// lastDeliver[from][to] is the pair's latest delivery time; a row is
	// grown to the node count the first time its sender sends.
	lastDeliver [][]des.Time

	// lossRate drops each loss-eligible (Unreliable) message with this
	// probability; jitterFrac perturbs each message's propagation latency
	// by a uniform factor in [0, jitterFrac). Both draw from rng, which is
	// seeded deterministically (SetJitter; default seed 1 on first use), so
	// a given configuration replays identically.
	lossRate   float64
	jitterFrac float64
	rng        *rand.Rand
}

// pipe serialises transfers that share a directional channel.
type pipe struct{ nextFree des.Time }

// namedPipe is one protocol's pipe of a node or of a shared segment. The
// pipe is held by pointer: in-flight messages keep theirs while the table
// grows.
type namedPipe struct {
	proto string
	pipe  *pipe
}

func (p *pipe) reserve(now des.Time, d des.Time) (start, end des.Time) {
	start = now
	if p.nextFree > start {
		start = p.nextFree
	}
	end = start + d
	p.nextFree = end
	return start, end
}

// New builds a network over the given sites. Nodes are added with AddNode.
func New(sim *des.Simulator, sites []Site) *Network {
	for i, s := range sites {
		if len(s.LANs) == 0 {
			panic(fmt.Sprintf("netsim: site %d (%s) has no LAN", i, s.Name))
		}
	}
	return &Network{
		sim:         sim,
		sites:       sites,
		segPipes:    make([][]namedPipe, len(sites)),
		blocked:     make(map[[2]int]bool),
		down:        make(map[int]bool),
		partitioned: make(map[int]bool),
	}
}

// --- Mutable-at-virtual-time parameters (grid-dynamics scenarios) ---

// Uplink returns site's current uplink.
func (n *Network) Uplink(site int) LinkClass { return n.sites[site].Uplink }

// LANs returns a copy of site's LAN list (the first entry is the default).
func (n *Network) LANs(site int) []LinkClass {
	return append([]LinkClass(nil), n.sites[site].LANs...)
}

// SetLANs replaces site's LAN list. Keep protocol names stable (see
// LinkClass.Scaled) so existing egress pipes keep their identity.
func (n *Network) SetLANs(site int, lans []LinkClass) {
	if len(lans) == 0 {
		panic(fmt.Sprintf("netsim: site %d must keep at least one LAN", site))
	}
	n.sites[site].LANs = lans
}

// SetDown marks a node crashed (true) or restarted (false). While a node is
// down, messages from it or to it — including messages already in flight at
// crash time, in either direction — are delivered with Dropped set.
func (n *Network) SetDown(node int, down bool) {
	if down {
		n.down[node] = true
	} else {
		delete(n.down, node)
	}
}

// SetPartitioned cuts (true) or restores (false) a site's uplink: messages
// crossing the site boundary — including messages already in flight when
// the cut happens — are delivered with Dropped set. Intra-site traffic is
// unaffected: the site's LAN does not go through the modem.
func (n *Network) SetPartitioned(site int, p bool) {
	if p {
		n.partitioned[site] = true
	} else {
		delete(n.partitioned, site)
	}
}

// lost reports whether a (from, to) message is severed by a down endpoint
// or a cut uplink at this instant.
func (n *Network) lost(from, to int) bool {
	if n.down[from] || n.down[to] {
		return true
	}
	sa, sb := n.nodes[from].Site, n.nodes[to].Site
	return sa != sb && (n.partitioned[sa] || n.partitioned[sb])
}

// SetLoss sets the drop probability applied to loss-eligible messages sent
// from now on (see Unreliable). Zero disables the loss model.
func (n *Network) SetLoss(rate float64) {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("netsim: loss rate %v out of [0,1)", rate))
	}
	n.lossRate = rate
}

// SetJitter enables per-message latency jitter: each message's propagation
// latency is multiplied by 1+u with u uniform in (-frac, +frac) — symmetric
// around the jitter-free latency, so jittered repetitions vary around the
// seedless run rather than being biased slow. Distinct seeds give distinct
// deterministic streams — the mechanism behind per-repetition variation in
// the experiment matrix. frac 0 disables jitter.
func (n *Network) SetJitter(frac float64, seed int64) {
	if frac < 0 {
		panic("netsim: negative jitter fraction")
	}
	n.jitterFrac = frac
	n.rng = rand.New(rand.NewSource(seed))
}

// random returns the shared deterministic stream, seeding it on first use.
func (n *Network) random() *rand.Rand {
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(1))
	}
	return n.rng
}

// AddNode registers a node on the given site and returns its id.
func (n *Network) AddNode(site int) int {
	if site < 0 || site >= len(n.sites) {
		panic(fmt.Sprintf("netsim: site %d out of range", site))
	}
	id := len(n.nodes)
	n.nodes = append(n.nodes, Node{ID: id, Site: site})
	n.nodePipes = append(n.nodePipes, nil)
	n.lastDeliver = append(n.lastDeliver, nil)
	return id
}

// Sites returns the number of sites.
func (n *Network) Sites() int { return len(n.sites) }

// Block removes direct visibility between two sites (e.g. a firewall).
// Traffic between them must be relayed by the application layer; Send
// returns ErrUnreachable.
func (n *Network) Block(siteA, siteB int) {
	n.blocked[[2]int{siteA, siteB}] = true
	n.blocked[[2]int{siteB, siteA}] = true
}

// Reachable reports whether from can send directly to to.
func (n *Network) Reachable(from, to int) bool {
	sa, sb := n.nodes[from].Site, n.nodes[to].Site
	return !n.blocked[[2]int{sa, sb}]
}

// ErrUnreachable is returned by Send when the destination's site is blocked.
type ErrUnreachable struct{ From, To int }

func (e ErrUnreachable) Error() string {
	return fmt.Sprintf("netsim: node %d cannot reach node %d (blocked site pair)", e.From, e.To)
}

// HasProto reports whether both endpoints' sites support proto for the path
// between from and to. Inter-site paths only ever use TCP.
func (n *Network) HasProto(from, to int, proto string) bool {
	if proto == TCP {
		return true
	}
	sa, sb := n.nodes[from].Site, n.nodes[to].Site
	if sa != sb {
		return false
	}
	_, ok := n.sites[sa].lan(proto)
	return ok
}

// Path describes the route a message would take.
type Path struct {
	Latency       des.Time
	BottleneckBps float64
	InterSite     bool
	Proto         string
}

// PathBetween computes latency and bottleneck bandwidth from one node to
// another using the given protocol (TCP if proto is empty or unavailable).
func (n *Network) PathBetween(from, to int, proto string) Path {
	sa, sb := n.nodes[from].Site, n.nodes[to].Site
	if sa == sb {
		lan := n.sites[sa].defaultLAN()
		if proto != "" {
			if lc, ok := n.sites[sa].lan(proto); ok {
				lan = lc
			}
		}
		if from == to {
			// Loopback: negligible latency, memory-speed copy.
			return Path{Latency: time.Microsecond, BottleneckBps: 10e9, Proto: "loopback"}
		}
		return Path{Latency: lan.Latency, BottleneckBps: minBps(lan.UpBps, lan.DownBps), Proto: lan.Name}
	}
	// Inter-site: LAN out, uplink out (up direction), WAN, uplink in
	// (down direction), LAN in. Always TCP.
	lanA, lanB := n.sites[sa].defaultLAN(), n.sites[sb].defaultLAN()
	upA, upB := n.sites[sa].Uplink, n.sites[sb].Uplink
	lat := lanA.Latency + upA.Latency + interSiteLatency + upB.Latency + lanB.Latency
	bw := minBps(minBps(lanA.UpBps, upA.UpBps), minBps(upB.DownBps, lanB.DownBps))
	return Path{Latency: lat, BottleneckBps: bw, InterSite: true, Proto: TCP}
}

func minBps(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// pipeFor returns the serialisation pipe a node's transfer contends on:
// the site-wide segment pipe for shared-medium LANs, the node's own NIC
// pipe otherwise.
func (n *Network) pipeFor(node int, lan LinkClass, proto string) *pipe {
	table := &n.nodePipes[node]
	if lan.Shared {
		table, proto = &n.segPipes[n.nodes[node].Site], lan.Name
	}
	for _, np := range *table {
		if np.proto == proto {
			return np.pipe
		}
	}
	p := &pipe{}
	*table = append(*table, namedPipe{proto: proto, pipe: p})
	return p
}

// SendOpt tunes one Send call.
type SendOpt struct{ unreliable bool }

// Unreliable marks the message loss-eligible: it may be dropped by the
// network's loss model (SetLoss). Callers use it for data-plane traffic
// whose loss the layers above tolerate, and keep control-plane traffic
// reliable (TCP-like).
func Unreliable() SendOpt { return SendOpt{unreliable: true} }

// Send transmits bytes from one node to another and calls deliver with the
// message at the computed arrival time. proto selects an intra-site LAN
// protocol ("" or "tcp" for default). Send returns the delivery time.
//
// Send may be called from processes or event callbacks; deliver runs in
// scheduler context (typically it pushes into a des.Chan inbox). deliver is
// called even for messages lost to the loss model or to a crashed endpoint,
// with Message.Dropped set (see Message). The *Message deliver receives is
// recycled as soon as deliver returns: deliver must not keep it.
func (n *Network) Send(from, to, bytes int, payload any, proto string, deliver func(*Message), opts ...SendOpt) (des.Time, error) {
	if !n.Reachable(from, to) {
		return 0, ErrUnreachable{From: from, To: to}
	}
	unreliable := false
	for _, o := range opts {
		unreliable = unreliable || o.unreliable
	}
	path := n.PathBetween(from, to, proto)
	now := n.sim.Now()
	ser := des.Time(float64(bytes) / path.BottleneckBps * float64(time.Second))
	m := n.message()
	*m = Message{From: from, To: to, Bytes: bytes, Payload: payload, Proto: path.Proto, SentAt: now,
		net: n, deliver: deliver}
	n.stats.Messages++
	n.stats.Bytes += uint64(bytes)
	if path.InterSite {
		n.stats.InterSite++
	} else {
		n.stats.IntraSite++
	}
	if n.lost(from, to) {
		m.Dropped = true
	}
	if !m.Dropped && unreliable && n.lossRate > 0 && n.random().Float64() < n.lossRate {
		m.Dropped = true
	}
	lat := path.Latency
	if n.jitterFrac > 0 {
		lat = des.Time(float64(lat) * (1 + n.jitterFrac*(2*n.random().Float64()-1)))
	}
	n.inFlight++
	if n.inFlight > n.stats.MaxInFlight {
		n.stats.MaxInFlight = n.inFlight
	}

	if path.Proto == "loopback" {
		return n.finish(m, now+ser+lat), nil
	}
	srcSite := n.sites[n.nodes[from].Site]
	srcLAN, _ := srcSite.lan(proto)
	_, egressEnd := n.pipeFor(from, srcLAN, path.Proto).reserve(now, ser)
	arrival := egressEnd + lat
	dstSite := n.sites[n.nodes[to].Site]
	dstLAN := dstSite.defaultLAN()
	if path.InterSite && dstLAN.Shared {
		// Store-and-forward: the destination site's shared segment is
		// reserved when the message *arrives* there, in arrival order —
		// reserving it at send time would punch dead holes into the
		// segment schedule. Which segment that is was decided here, at
		// send time.
		m.ser, m.seg = ser, n.pipeFor(to, dstLAN, dstLAN.Name)
		n.sim.ScheduleHandler(arrival, m, stageSegment)
		return arrival + ser, nil // estimate assuming an idle segment
	}
	return n.finish(m, arrival), nil
}

// finish schedules m's delivery and returns the actual delivery time after
// the FIFO clamp: a TCP byte stream between two endpoints cannot reorder,
// so a message never arrives before one sent earlier on the same
// (from, to) pair.
//
//lint:hotpath
func (n *Network) finish(m *Message, at des.Time) des.Time {
	row := n.lastDeliver[m.From]
	if len(row) <= m.To {
		row = n.growLastDeliver(m.From)
	}
	if prev := row[m.To]; at < prev {
		at = prev
	}
	row[m.To] = at
	m.DeliverAt = at
	n.sim.ScheduleHandler(at, m, stageDeliver)
	return at
}

// growLastDeliver sizes from's row of the FIFO-clamp table to the current
// node count.
func (n *Network) growLastDeliver(from int) []des.Time {
	row := make([]des.Time, len(n.nodes))
	copy(row, n.lastDeliver[from])
	n.lastDeliver[from] = row
	return row
}

// Stats returns a copy of the traffic counters.
func (n *Network) StatsSnapshot() Stats { return n.stats }
