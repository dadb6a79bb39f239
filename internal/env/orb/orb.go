// Package orb models OmniORB 4 (paper §3): a CORBA object request broker
// pressed into service as a parallel programming environment.
//
// Distinguishing properties in the simulation:
//
//   - Real GIOP/CDR message framing (cdr.go): the largest headers of the
//     four environments and a per-byte marshaling cost above the raw
//     memory-copy of the MPI-family environments. On the neighbour-exchange
//     non-linear problem, where messages are few and large and the network
//     is slow, this is what puts OmniORB 5-10% behind MPI/Mad (Table 3).
//   - Fully parallel communication: N sending threads (one per
//     destination) and server-side dispatch threads created per request
//     (the POA threading model). Under the sparse problem's all-to-all
//     traffic this receive-side concurrency is what puts OmniORB ahead of
//     MPI/Mad (Table 2).
//   - Client/server deployment (§5.3): the connection graph need not be
//     complete — requests are relayed through a reachable peer (modelling
//     the ORB's ability to bypass firewall visibility problems), and a
//     naming service provides bootstrap (NamingService).
package orb

import (
	"fmt"
	"time"

	"aiac/internal/cluster"
	"aiac/internal/env/envcore"
	"aiac/internal/trace"
)

// Kind selects the Table 4 thread configuration.
type Kind int

const (
	// Sparse is the all-to-all sparse linear problem configuration:
	// N sending threads.
	Sparse Kind = iota
	// NonLinear is the chemical problem configuration: two sending
	// threads.
	NonLinear
)

// Costs is the communication cost model: CDR marshaling per byte on both
// sides, GIOP headers (measured by MessageBytes, approximated here by the
// fixed header of an empty request), and per-request dispatch cost.
var Costs = envcore.CostModel{
	HeaderBytes:         MessageBytes(0),
	WireOverheadPerByte: 0.0, // CDR stores doubles compactly; headers dominate
	PackNsPerByte:       3.0,
	UnpackNsPerByte:     3.0,
	// Per-request dispatch is the heaviest of the four environments:
	// GIOP framing, POA object lookup, and a per-request server thread.
	SendCPU:     180 * time.Microsecond,
	RecvCPU:     180 * time.Microsecond,
	SendLatency: 200 * time.Microsecond,
	RecvLatency: envcore.DefaultRecvLatency,
}

// New builds the OmniORB environment with the Table 4 thread policy for
// the given problem kind. It never fails on reachability: blocked site
// pairs are relayed.
func New(grid *cluster.Grid, kind Kind, tr *trace.Collector) (*envcore.Env, error) {
	sendThreads := grid.Size()
	policy := "N sending threads, receiving threads created on demand"
	if kind == NonLinear {
		sendThreads = 2
		policy = "two sending threads, receiving threads created on demand"
	}
	opts := envcore.Options{
		Name:         "omniorb4",
		Costs:        Costs,
		SendThreads:  sendThreads,
		RecvModel:    envcore.RecvOnDemand,
		ThreadPolicy: policy,
		Relay:        true,
		Trace:        tr,
	}
	return envcore.New(grid, opts)
}

// MustNew is New that panics on errors.
func MustNew(grid *cluster.Grid, kind Kind, tr *trace.Collector) *envcore.Env {
	e, err := New(grid, kind, tr)
	if err != nil {
		panic(err)
	}
	return e
}

// NamingService models the CORBA naming service each deployment needs
// (§5.3): every rank registers an object reference and resolves the
// references of its peers. It is bookkeeping, not hot-path: Bootstrap
// reports the reference table and the setup message count so deployments
// can be compared.
type NamingService struct {
	host int
	refs map[string]string
}

// NewNamingService starts a naming service on the given rank's machine.
func NewNamingService(host int) *NamingService {
	return &NamingService{host: host, refs: make(map[string]string)}
}

// Register binds a name to an object reference (an IOR-like string).
func (ns *NamingService) Register(rank int) {
	name := fmt.Sprintf("aiac/solver%d", rank)
	ns.refs[name] = fmt.Sprintf("IOR:rank=%d;key=%dk", rank, objectKeyBytes)
}

// Resolve looks a reference up.
func (ns *NamingService) Resolve(rank int) (string, bool) {
	ref, ok := ns.refs[fmt.Sprintf("aiac/solver%d", rank)]
	return ref, ok
}

// Bootstrap registers all ranks and returns the number of naming-service
// messages a real deployment would exchange (one register plus n-1
// resolves per rank).
func Bootstrap(ns *NamingService, nranks int) int {
	for r := 0; r < nranks; r++ {
		ns.Register(r)
	}
	return nranks * nranks // n registers + n*(n-1) resolves
}
