// Package mpi models the classical mono-threaded MPI of the paper's §2:
// message receipts must be explicitly localised in the program sequence, so
// there are no receive threads at all — data messages wait until the
// application reaches its SyncExchangeK call. It is the environment of the
// synchronous SISC baseline in Tables 2-3 and Figure 3.
//
// The cost model is a 2004-era TCP MPI: small headers, memcpy-speed
// packing, a fixed per-message protocol cost, and no dispatch concurrency.
package mpi

import (
	"time"

	"aiac/internal/cluster"
	"aiac/internal/env/envcore"
	"aiac/internal/trace"
)

// Costs is the communication cost model of the environment.
var Costs = envcore.CostModel{
	HeaderBytes:     64,
	PackNsPerByte:   0.5,
	UnpackNsPerByte: 0.5,
	SendCPU:         40 * time.Microsecond,
	RecvCPU:         40 * time.Microsecond,
}

// New builds the synchronous MPI environment over the grid. MPI requires a
// complete connection graph (§5.3).
func New(grid *cluster.Grid, tr *trace.Collector) (*envcore.Env, error) {
	opts := envcore.Options{
		Name:         "sync-mpi",
		Costs:        Costs,
		SendThreads:  1,
		RecvModel:    envcore.RecvSync,
		ThreadPolicy: "mono-threaded: blocking sends and receives in the iteration loop",
		Trace:        tr,
	}
	return envcore.New(grid, opts)
}

// MustNew is New that panics on deployment errors.
func MustNew(grid *cluster.Grid, tr *trace.Collector) *envcore.Env {
	e, err := New(grid, tr)
	if err != nil {
		panic(err)
	}
	return e
}
