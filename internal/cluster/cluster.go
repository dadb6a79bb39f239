// Package cluster assembles the simulated grids used in the paper's
// experiments: machines with heterogeneous CPU speeds attached to sites with
// heterogeneous links.
//
// Three grid builders correspond to the paper's three test series (§5.1):
//
//   - ThreeSiteEthernet: heterogeneous machines scattered on three distant
//     sites connected by 10 Mb/s Ethernet (series 1; Table 2 and the
//     Ethernet half of Table 3).
//   - FourSiteADSL: four sites, one of them behind an asymmetric ADSL link,
//     512 kb/s down / 128 kb/s up (series 2; the ADSL half of Table 3).
//   - LocalHeterogeneous: a single-site cluster on 100 Mb/s Ethernet with
//     three machine kinds — Duron 800 MHz, Pentium IV 1.7 GHz, Pentium IV
//     2.4 GHz — interleaved in the logical ring to preserve scalability
//     (series 3; Figure 3).
package cluster

import (
	"fmt"

	"aiac/internal/des"
	"aiac/internal/marcel"
	"aiac/internal/netsim"
)

// MachineClass is a kind of machine with a sustained compute rate.
// The MFlops ratings keep the paper's relative speeds (a P4 2.4 GHz is
// roughly 3x a Duron 800 MHz on dense float loops).
type MachineClass struct {
	Name   string
	MFlops float64
}

// The machine kinds of the paper's local heterogeneous cluster (§5.1).
var (
	Duron800 = MachineClass{Name: "duron-800", MFlops: 400}
	P4_1700  = MachineClass{Name: "p4-1.7", MFlops: 850}
	P4_2400  = MachineClass{Name: "p4-2.4", MFlops: 1200}
)

// Machine is one simulated host: a network attachment plus a CPU.
type Machine struct {
	Node  int // netsim node id == rank in the experiments
	Class MachineClass
	CPU   *marcel.CPU
}

// Grid is a complete simulated platform.
type Grid struct {
	Sim      *des.Simulator
	Net      *netsim.Network
	Machines []*Machine
	Name     string
}

// Size returns the number of machines.
func (g *Grid) Size() int { return len(g.Machines) }

// addMachine creates a machine of class mc on the given site.
func (g *Grid) addMachine(site int, mc MachineClass) *Machine {
	node := g.Net.AddNode(site)
	m := &Machine{
		Node:  node,
		Class: mc,
		CPU:   marcel.NewCPU(g.Sim, fmt.Sprintf("%s-n%d", mc.Name, node), mc.MFlops),
	}
	g.Machines = append(g.Machines, m)
	return m
}

// interleave returns class i of the rotation Duron, P4-1.7, P4-2.4. The
// paper interleaves machine types in the logical organisation of the
// network "in order to preserve the scalability feature".
func interleave(i int) MachineClass {
	switch i % 3 {
	case 0:
		return Duron800
	case 1:
		return P4_1700
	default:
		return P4_2400
	}
}

// ThreeSiteEthernet builds the paper's first grid: n heterogeneous machines
// spread round-robin over three distant sites linked by 10 Mb/s Ethernet.
func ThreeSiteEthernet(sim *des.Simulator, n int) *Grid {
	if n < 1 {
		panic("cluster: need at least one machine")
	}
	sites := []netsim.Site{
		{Name: "site-a", Uplink: netsim.Ethernet10, LANs: []netsim.LinkClass{netsim.Ethernet10}},
		{Name: "site-b", Uplink: netsim.Ethernet10, LANs: []netsim.LinkClass{netsim.Ethernet10}},
		{Name: "site-c", Uplink: netsim.Ethernet10, LANs: []netsim.LinkClass{netsim.Ethernet10}},
	}
	g := &Grid{Sim: sim, Net: netsim.New(sim, sites), Name: "3-site-ethernet"}
	for i := 0; i < n; i++ {
		g.addMachine(i%3, interleave(i))
	}
	return g
}

// FourSiteADSL builds the paper's second grid: four sites, the fourth one
// reachable only through an asymmetric ADSL link. Machines are slightly
// faster on average than in the Ethernet grid, matching the paper's remark
// that the two series used different machine sets ("the slowest machine in
// the first set is a bit slower than the one in the second set") — which is
// why only speed ratios, not raw times, are comparable across Table 3 rows.
func FourSiteADSL(sim *des.Simulator, n int) *Grid {
	if n < 1 {
		panic("cluster: need at least one machine")
	}
	sites := []netsim.Site{
		{Name: "site-a", Uplink: netsim.Ethernet10, LANs: []netsim.LinkClass{netsim.Ethernet10}},
		{Name: "site-b", Uplink: netsim.Ethernet10, LANs: []netsim.LinkClass{netsim.Ethernet10}},
		{Name: "site-c", Uplink: netsim.Ethernet10, LANs: []netsim.LinkClass{netsim.Ethernet10}},
		{Name: "site-adsl", Uplink: netsim.ADSL, LANs: []netsim.LinkClass{netsim.Ethernet10}},
	}
	g := &Grid{Sim: sim, Net: netsim.New(sim, sites), Name: "4-site-adsl"}
	faster := func(i int) MachineClass {
		switch i % 3 {
		case 0:
			return MachineClass{Name: "duron-900", MFlops: 450}
		case 1:
			return P4_1700
		default:
			return P4_2400
		}
	}
	for i := 0; i < n; i++ {
		g.addMachine(i%4, faster(i))
	}
	return g
}

// LocalHeterogeneous builds the paper's third platform: one site on
// 100 Mb/s Ethernet, machine kinds interleaved, "merely the same number of
// machines of each type".
func LocalHeterogeneous(sim *des.Simulator, n int) *Grid {
	if n < 1 {
		panic("cluster: need at least one machine")
	}
	sites := []netsim.Site{
		{Name: "local", Uplink: netsim.Ethernet100, LANs: []netsim.LinkClass{netsim.Ethernet100}},
	}
	g := &Grid{Sim: sim, Net: netsim.New(sim, sites), Name: "local-heterogeneous"}
	for i := 0; i < n; i++ {
		g.addMachine(0, interleave(i))
	}
	return g
}

// LocalMultiProtocol is LocalHeterogeneous plus Myrinet availability,
// exercising MPICH/Madeleine's multi-protocol feature (§5.3).
func LocalMultiProtocol(sim *des.Simulator, n int) *Grid {
	if n < 1 {
		panic("cluster: need at least one machine")
	}
	sites := []netsim.Site{
		{Name: "local", Uplink: netsim.Ethernet100, LANs: []netsim.LinkClass{netsim.Ethernet100, netsim.Myrinet}},
	}
	g := &Grid{Sim: sim, Net: netsim.New(sim, sites), Name: "local-multiproto"}
	for i := 0; i < n; i++ {
		g.addMachine(0, interleave(i))
	}
	return g
}

// Homogeneous builds a uniform single-site grid, useful for tests whose
// assertions need machine symmetry.
func Homogeneous(sim *des.Simulator, n int, mc MachineClass, lan netsim.LinkClass) *Grid {
	if n < 1 {
		panic("cluster: need at least one machine")
	}
	sites := []netsim.Site{{Name: "local", Uplink: lan, LANs: []netsim.LinkClass{lan}}}
	g := &Grid{Sim: sim, Net: netsim.New(sim, sites), Name: "homogeneous"}
	for i := 0; i < n; i++ {
		g.addMachine(0, mc)
	}
	return g
}
