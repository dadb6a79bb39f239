// Package madmpi models MPICH/Madeleine (paper §3): a thread-safe,
// multi-protocol MPI built on the Marcel thread package and the Madeleine
// communication library.
//
// Its distinguishing properties in the simulation:
//
//   - Table 4 thread policy: one sending and one receiving thread on the
//     sparse problem, two of each on the non-linear problem. The receive
//     pool ingests messages serially (a blocking read per message), which
//     is the mechanical source of its Table 2 penalty under all-to-all
//     dependency traffic.
//   - Multi-protocol: intra-site traffic uses the fastest LAN protocol the
//     site offers (Myrinet, SCI), inter-site traffic uses TCP — the
//     Madeleine 3 feature highlighted in §5.3.
//   - Deployment requires full visibility between all machines (§5.3).
package madmpi

import (
	"time"

	"aiac/internal/cluster"
	"aiac/internal/env/envcore"
	"aiac/internal/netsim"
	"aiac/internal/trace"
)

// Kind selects the Table 4 thread configuration.
type Kind int

const (
	// Sparse is the all-to-all sparse linear problem configuration.
	Sparse Kind = iota
	// NonLinear is the neighbour-exchange chemical problem configuration.
	NonLinear
)

// Costs is the communication cost model: memcpy-speed packing, MPI
// matching cost per message, and a serial blocking-read turnaround on the
// receive side.
var Costs = envcore.CostModel{
	HeaderBytes:     64,
	PackNsPerByte:   0.5,
	UnpackNsPerByte: 0.5,
	SendCPU:         40 * time.Microsecond,
	RecvCPU:         40 * time.Microsecond,
	SendLatency:     envcore.DefaultSendLatency,
	RecvLatency:     envcore.DefaultRecvLatency,
}

// ProtoFor picks the fastest protocol available between two nodes
// (Madeleine's multi-protocol selection).
func ProtoFor(net *netsim.Network, from, to int) string {
	for _, proto := range []string{"myrinet", "sci"} {
		if net.HasProto(from, to, proto) {
			return proto
		}
	}
	return netsim.TCP
}

// New builds the MPICH/Madeleine environment with the Table 4 thread
// policy for the given problem kind.
func New(grid *cluster.Grid, kind Kind, tr *trace.Collector) (*envcore.Env, error) {
	sendThreads, recvThreads := 1, 1
	policy := "one sending thread, one receiving thread"
	if kind == NonLinear {
		sendThreads, recvThreads = 2, 2
		policy = "two sending threads, two receiving threads"
	}
	opts := envcore.Options{
		Name:         "mpi/mad",
		Costs:        Costs,
		SendThreads:  sendThreads,
		RecvModel:    envcore.RecvSingleThread,
		RecvThreads:  recvThreads,
		ThreadPolicy: policy,
		ProtoFor:     ProtoFor,
		Backpressure: true, // MPI protocol switch: see RendezvousBytes
		// Messages of 16 KiB and above use the rendezvous protocol (an
		// RTS/CTS round-trip, completion at the matching receive);
		// smaller ones are eager. This is the MPICH large-message
		// protocol and the mechanical source of the Table 2 / Table 3
		// inversion: the sparse problem's block exchanges are large
		// (rendezvous), the chemical problem's ghost rows are small
		// (eager).
		RendezvousBytes: 16 << 10,
		// 2004-era default TCP socket buffers (16 KiB was the common
		// default): large messages stall until the (single) receive
		// thread drains them. Calibrated against Table 2's 32% gap; see
		// EXPERIMENTS.md.
		SocketBufBytes: 16 << 10,
		Trace:          tr,
	}
	return envcore.New(grid, opts)
}

// MustNew is New that panics on deployment errors.
func MustNew(grid *cluster.Grid, kind Kind, tr *trace.Collector) *envcore.Env {
	e, err := New(grid, kind, tr)
	if err != nil {
		panic(err)
	}
	return e
}
