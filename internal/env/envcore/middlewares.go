package envcore

import (
	"fmt"
	"time"

	"aiac/internal/netsim"
)

// middleware is one environment of the paper's comparison: the options its
// two Table 4 rows share, and the thread configuration of each row.
type middleware struct {
	// name is the environment axis value (matrix.EnvNames).
	name string
	// opts holds everything but the threads: the display name, the cost
	// model and the deployment requirements.
	opts Options
	// sparse is the row for the all-to-all sparse linear problem,
	// nonLinear the one for the neighbour-exchange chemical problem.
	sparse, nonLinear threads
}

// threads is the thread configuration of one Table 4 row.
type threads struct {
	send   int // sending threads per rank; 0 is one per rank
	recv   RecvModel
	recvN  int    // receiving threads under RecvSingleThread
	policy string // the row as the paper's Table 4 states it
}

// giopHeaderBytes is the wire size of an omniORB data request carrying no
// doubles: a GIOP 1.2 Request with a CDR body, little-endian, each field
// aligned to its own size from the start of the message.
//
//	GIOP header: "GIOP", version 1.2, flags, type, message size  12
//	request id (4), response flags (1), reserved (3)              8
//	target address disposition KeyAddr (2), pad (2)               4
//	object key length (4), omniORB's POA object key (24)         28
//	operation length (4), "update_data\x00" (12)                 16
//	service context count (4)                                     4
//	body: from, iter, lo (4 each), pad (4), sequence length (4)  20
//	pad to 8 before the doubles                                   4
//
// The doubles follow at 8 bytes each, the size of the payload itself, so
// the header is all the wire overhead.
const giopHeaderBytes = 96

// middlewares is the comparison's four environments, in the order of
// matrix.EnvNames.
var middlewares = []middleware{
	// The classical mono-threaded MPI of the paper's §2: message receipts
	// must be explicitly localised in the program sequence, so there are
	// no receive threads at all — data messages wait until the
	// application reaches its SyncExchangeK call. It is the environment
	// of the synchronous SISC baseline in Tables 2-3 and Figure 3. The
	// cost model is a 2004-era TCP MPI: small headers, memcpy-speed
	// packing, a fixed per-message protocol cost, and no dispatch
	// concurrency. Deployment requires a complete connection graph
	// (§5.3).
	{
		name: "mpi",
		opts: Options{
			Name: "sync-mpi",
			Costs: CostModel{
				HeaderBytes:     64,
				PackNsPerByte:   0.5,
				UnpackNsPerByte: 0.5,
				SendCPU:         40 * time.Microsecond,
				RecvCPU:         40 * time.Microsecond,
			},
		},
		sparse:    threads{1, RecvSync, 0, "mono-threaded: blocking sends and receives in the iteration loop"},
		nonLinear: threads{1, RecvSync, 0, "mono-threaded: blocking sends and receives in the iteration loop"},
	},
	// PM2 (§3): the RPC-based multithreaded environment built on Marcel
	// (threads) and Madeleine (communication) that the authors used for
	// their original AIAC implementations. Communication is remote
	// procedure call with explicit data packing before the call (§5.2):
	// a per-byte packing cost above memcpy plus an RPC dispatch cost per
	// message. Deployment requires a complete interconnection graph and
	// offers no automatic data-representation conversion (§5.3).
	{
		name: "pm2",
		opts: Options{
			Name: "pm2",
			Costs: CostModel{
				HeaderBytes:     40,
				PackNsPerByte:   1.0,
				UnpackNsPerByte: 1.0,
				SendCPU:         50 * time.Microsecond,
				RecvCPU:         50 * time.Microsecond,
				SendLatency:     DefaultSendLatency,
				RecvLatency:     DefaultRecvLatency,
			},
		},
		sparse:    threads{1, RecvOnDemand, 0, "one sending thread, receiving threads created on demand"},
		nonLinear: threads{2, RecvSingleThread, 1, "two sending threads, one receiving thread"},
	},
	// MPICH/Madeleine (§3): a thread-safe, multi-protocol MPI built on the
	// Marcel thread package and the Madeleine communication library. Its
	// cost model is memcpy-speed packing, an MPI matching cost per message
	// and a serial blocking-read turnaround on the receive side: the
	// receive pool ingests messages one after another, the mechanical
	// source of its Table 2 penalty under all-to-all dependency traffic.
	// Intra-site traffic uses the fastest LAN protocol the site offers
	// (madeleineProto), the Madeleine 3 feature of §5.3. Deployment
	// requires full visibility between all machines (§5.3).
	{
		name: "madmpi",
		opts: Options{
			Name: "mpi/mad",
			Costs: CostModel{
				HeaderBytes:     64,
				PackNsPerByte:   0.5,
				UnpackNsPerByte: 0.5,
				SendCPU:         40 * time.Microsecond,
				RecvCPU:         40 * time.Microsecond,
				SendLatency:     DefaultSendLatency,
				RecvLatency:     DefaultRecvLatency,
			},
			ProtoFor:     madeleineProto,
			Backpressure: true, // MPI protocol switch: see RendezvousBytes
			// Messages of 16 KiB and above use the rendezvous protocol
			// (an RTS/CTS round-trip, completion at the matching
			// receive); smaller ones are eager. This is the MPICH
			// large-message protocol and the mechanical source of the
			// Table 2 / Table 3 inversion: the sparse problem's block
			// exchanges are large (rendezvous), the chemical problem's
			// ghost rows are small (eager).
			RendezvousBytes: 16 << 10,
			// 2004-era default TCP socket buffers (16 KiB was the common
			// default): large messages stall until the receive thread
			// drains them. Calibrated against Table 2's 32% gap.
			SocketBufBytes: 16 << 10,
		},
		sparse:    threads{1, RecvSingleThread, 1, "one sending thread, one receiving thread"},
		nonLinear: threads{2, RecvSingleThread, 2, "two sending threads, two receiving threads"},
	},
	// OmniORB 4 (§3): a CORBA object request broker pressed into service
	// as a parallel programming environment. GIOP framing (giopHeaderBytes)
	// gives it the largest headers of the four and a per-byte
	// marshaling cost above the MPI family's memory copy; CDR stores
	// doubles as 8 bytes each, so headers are all the wire overhead. The
	// per-request dispatch is the heaviest of the four: GIOP framing, POA
	// object lookup and a server thread per request. On the chemical
	// problem README's -paper table3 rows put it 0.9-3.7 % behind MPI/Mad
	// (sync 1.31 vs 1.29 s on 3site, 5.86 vs 5.65 s on adsl; async 684.0
	// vs 677.8 ms, 2.64 vs 2.56 s). Communication is fully parallel: one
	// sending thread per destination on the sparse problem, and
	// server-side dispatch threads created per request (the POA threading
	// model); under the sparse problem's all-to-all traffic this
	// receive-side concurrency puts it ahead of MPI/Mad (Table 2). Its
	// client/server deployment (§5.3) needs no complete connection graph:
	// requests are relayed through a reachable peer, modelling the ORB's
	// way around firewall visibility problems.
	{
		name: "omniorb",
		opts: Options{
			Name: "omniorb4",
			Costs: CostModel{
				HeaderBytes:     giopHeaderBytes,
				PackNsPerByte:   3.0,
				UnpackNsPerByte: 3.0,
				SendCPU:         180 * time.Microsecond,
				RecvCPU:         180 * time.Microsecond,
				SendLatency:     200 * time.Microsecond,
				RecvLatency:     DefaultRecvLatency,
			},
			Relay: true,
		},
		sparse:    threads{0, RecvOnDemand, 0, "N sending threads, receiving threads created on demand"},
		nonLinear: threads{2, RecvOnDemand, 0, "two sending threads, receiving threads created on demand"},
	},
}

// Middleware returns the options of the named environment's Table 4 row:
// with sparse, its row for the all-to-all sparse linear problem, otherwise
// the one for the neighbour-exchange chemical problem. name is an
// environment axis value (matrix.EnvNames); any other panics.
func Middleware(name string, sparse bool) Options {
	for _, m := range middlewares {
		if m.name != name {
			continue
		}
		opts, t := m.opts, m.nonLinear
		if sparse {
			t = m.sparse
		}
		opts.SendThreads, opts.RecvModel, opts.RecvThreads, opts.ThreadPolicy = t.send, t.recv, t.recvN, t.policy
		return opts
	}
	panic(fmt.Sprintf("envcore: no middleware %q", name))
}

// madeleineProto picks the fastest protocol available between two nodes
// (Madeleine's multi-protocol selection).
func madeleineProto(net *netsim.Network, from, to int) string {
	for _, proto := range []string{"myrinet", "sci"} {
		if net.HasProto(from, to, proto) {
			return proto
		}
	}
	return netsim.TCP
}
