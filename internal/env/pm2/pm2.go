// Package pm2 models PM2 (paper §3): the RPC-based multithreaded
// environment built on Marcel (threads) and Madeleine (communication) that
// the authors used for their original AIAC implementations.
//
// Distinguishing properties in the simulation:
//
//   - Communication is remote procedure call with explicit data packing
//     before the call (§5.2), modelled as a per-byte packing cost above
//     memcpy plus an RPC dispatch cost per message.
//   - Table 4 thread policy: one sending thread with receive threads
//     created on demand for the sparse problem; two sending threads and one
//     receiving thread for the non-linear problem.
//   - Deployment requires a complete interconnection graph and offers no
//     automatic data-representation conversion (§5.3) — the environment
//     refuses grids with blocked site pairs.
package pm2

import (
	"time"

	"aiac/internal/cluster"
	"aiac/internal/env/envcore"
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

// Costs is the communication cost model: explicit packing (above memcpy)
// and an RPC dispatch cost per message.
var Costs = envcore.CostModel{
	HeaderBytes:     40,
	PackNsPerByte:   1.0,
	UnpackNsPerByte: 1.0,
	SendCPU:         50 * time.Microsecond,
	RecvCPU:         50 * time.Microsecond,
	SendLatency:     envcore.DefaultSendLatency,
	RecvLatency:     envcore.DefaultRecvLatency,
}

// New builds the PM2 environment with the Table 4 thread policy for the
// given problem kind.
func New(grid *cluster.Grid, kind Kind, tr *trace.Collector) (*envcore.Env, error) {
	opts := envcore.Options{
		Name:         "pm2",
		Costs:        Costs,
		SendThreads:  1,
		RecvModel:    envcore.RecvOnDemand,
		ThreadPolicy: "one sending thread, receiving threads created on demand",
		Trace:        tr,
	}
	if kind == NonLinear {
		opts.SendThreads = 2
		opts.RecvModel = envcore.RecvSingleThread
		opts.RecvThreads = 1
		opts.ThreadPolicy = "two sending threads, one receiving thread"
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
