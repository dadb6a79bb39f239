// Ablations for the design choices behind the results: each drives
// aiac.Run directly on a configuration the experiment matrix has no axis
// for (a scheduler policy, a receive model, a hub, a block weighting). The
// paper's tables and figures themselves are sweeps: aiacbench -paper. Run
// with
//
//	go test -bench=. -benchmem
//
// Each benchmark executes its experiment once per b.N iteration (the
// experiments are deterministic, so b.N = 1 gives the full result) and
// prints the two times side by side; they are also exposed as custom
// metrics (vsec/<variant>).
package main

import (
	"fmt"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/chem"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/envcore"
	"aiac/internal/env/madmpi"
	"aiac/internal/env/mpi"
	"aiac/internal/env/orb"
	"aiac/internal/env/pm2"
	"aiac/internal/gmres"
	"aiac/internal/marcel"
	"aiac/internal/matrix"
	"aiac/internal/netsim"
	"aiac/internal/problems"
)

// BenchmarkAblationSyncMultisplitting compares the two synchronous
// baselines for the non-linear problem: the classical global Newton with
// distributed GMRES (Table 3's baseline, paper §4.2 strategy 1) versus
// lockstep multisplitting (strategy 2 run synchronously). The paper's
// measured speed ratios (~4.5) fall between the two at our scale.
func BenchmarkAblationSyncMultisplitting(b *testing.B) {
	spec, err := matrix.Preset("table3")
	if err != nil {
		b.Fatal(err)
	}
	procs, n, cp := spec.Procs[0], spec.Sizes[0], spec.Chem
	gp := gmres.Params{Tol: cp.GmresTol, Restart: 30}
	var tGlobal, tLockstep des.Time
	for i := 0; i < b.N; i++ {
		{
			grid := cluster.ThreeSiteEthernet(des.New(), procs)
			p := chem.New(n, n)
			run := problems.RunChemSyncGlobal(grid, mpi.MustNew(grid, nil), p, p.InitialState(),
				cp.StepS, cp.HorizonS, gp, cp.Eps, 50)
			tGlobal = run.Elapsed
		}
		{
			grid := cluster.ThreeSiteEthernet(des.New(), procs)
			p := chem.New(n, n)
			run := problems.RunChem(grid, mpi.MustNew(grid, nil), p, p.InitialState(),
				cp.StepS, cp.HorizonS, gp, aiac.Config{Mode: aiac.Sync, Eps: cp.Eps})
			tLockstep = run.Elapsed
		}
	}
	b.StopTimer()
	fmt.Printf("Ablation sync baselines (Ethernet grid): global GMRES %v, lockstep multisplitting %v\n\n", tGlobal, tLockstep)
	b.ReportMetric(tGlobal.Seconds(), "vsec/global-gmres")
	b.ReportMetric(tLockstep.Seconds(), "vsec/lockstep")
}

// BenchmarkAblationSchedulerFairness probes §6's fairness requirement: the
// same AIAC solve with fair versus unfair (LIFO) CPU scheduling on every
// machine, with ORB-style on-demand handler threads competing with the
// solver thread for the CPU under all-to-all traffic. The primitive-level
// starvation guarantee is asserted by marcel's unfair-scheduler tests; the
// system-level effect depends on how saturated the CPUs are, so both times
// are reported side by side.
func BenchmarkAblationSchedulerFairness(b *testing.B) {
	run := func(policy func(*cluster.Grid)) des.Time {
		sim := des.New()
		grid := cluster.ThreeSiteEthernet(sim, 12)
		policy(grid)
		env := orb.MustNew(grid, orb.Sparse, nil)
		prob := problems.NewLinear(120000, 30, 0.88, 3)
		rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-7, MaxIters: 1000000})
		return rep.Elapsed
	}
	var fair, unfair des.Time
	for i := 0; i < b.N; i++ {
		fair = run(func(*cluster.Grid) {})
		unfair = run(func(g *cluster.Grid) {
			for _, m := range g.Machines {
				m.CPU.Policy = marcel.Unfair
			}
		})
	}
	b.StopTimer()
	fmt.Printf("Ablation scheduler fairness (ORB, all-to-all): fair %v, unfair %v\n\n", fair, unfair)
	b.ReportMetric(fair.Seconds(), "vsec/fair")
	b.ReportMetric(unfair.Seconds(), "vsec/unfair")
}

// BenchmarkAblationRecvModel isolates the receive-thread policy: the same
// cost model with a single receiving thread versus on-demand threads on the
// all-to-all sparse problem.
func BenchmarkAblationRecvModel(b *testing.B) {
	run := func(model envcore.RecvModel) des.Time {
		sim := des.New()
		grid := cluster.ThreeSiteEthernet(sim, 12)
		opts := envcore.Options{
			Name:         "ablation",
			Costs:        madmpi.Costs,
			SendThreads:  1,
			RecvModel:    model,
			Backpressure: true, RendezvousBytes: 16 << 10, SocketBufBytes: 16 << 10,
		}
		env := envcore.MustNew(grid, opts)
		prob := problems.NewLinear(120000, 30, 0.88, 7)
		rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-7, MaxIters: 1000000})
		return rep.Elapsed
	}
	var single, onDemand des.Time
	for i := 0; i < b.N; i++ {
		single = run(envcore.RecvSingleThread)
		onDemand = run(envcore.RecvOnDemand)
	}
	b.StopTimer()
	fmt.Printf("Ablation receive model (all-to-all sparse): single thread %v, on demand %v\n\n", single, onDemand)
	b.ReportMetric(single.Seconds(), "vsec/single-thread")
	b.ReportMetric(onDemand.Seconds(), "vsec/on-demand")
}

// BenchmarkAblationSharedMedium compares switched versus hub (shared
// medium) 10 Mb Ethernet for the synchronous algorithm, whose per-round
// bursts collide on a shared segment.
func BenchmarkAblationSharedMedium(b *testing.B) {
	run := func(lan netsim.LinkClass) des.Time {
		sim := des.New()
		grid := cluster.Homogeneous(sim, 8, cluster.P4_1700, lan)
		env := mpi.MustNew(grid, nil)
		prob := problems.NewLinear(40000, 12, 0.8, 5)
		rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Sync, Eps: 1e-7})
		return rep.Elapsed
	}
	var switched, hub des.Time
	for i := 0; i < b.N; i++ {
		switched = run(netsim.Ethernet10)
		hub = run(netsim.Ethernet10Hub)
	}
	b.StopTimer()
	fmt.Printf("Ablation shared medium (sync, 8 procs): switched %v, hub %v\n\n", switched, hub)
	b.ReportMetric(switched.Seconds(), "vsec/switched")
	b.ReportMetric(hub.Seconds(), "vsec/hub")
}

// BenchmarkAblationMultiProtocol measures MPICH/Madeleine's multi-protocol
// feature (§5.3): the same solve with TCP-only versus Myrinet available
// intra-site.
func BenchmarkAblationMultiProtocol(b *testing.B) {
	run := func(multi bool) des.Time {
		sim := des.New()
		var grid *cluster.Grid
		if multi {
			grid = cluster.LocalMultiProtocol(sim, 8)
		} else {
			grid = cluster.LocalHeterogeneous(sim, 8)
		}
		env := madmpi.MustNew(grid, madmpi.Sparse, nil)
		prob := problems.NewLinear(40000, 12, 0.8, 11)
		rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-7, MaxIters: 3000000})
		return rep.Elapsed
	}
	var tcp, myri des.Time
	for i := 0; i < b.N; i++ {
		tcp = run(false)
		myri = run(true)
	}
	b.StopTimer()
	fmt.Printf("Ablation multi-protocol (mpi/mad, 8 procs): tcp-only %v, with myrinet %v\n\n", tcp, myri)
	b.ReportMetric(tcp.Seconds(), "vsec/tcp")
	b.ReportMetric(myri.Seconds(), "vsec/myrinet")
}

// BenchmarkAblationLoadBalancing measures the static load-balancing
// extension (the direction of the paper's reference [7]): row blocks sized
// proportionally to machine speed versus equal blocks, on the heterogeneous
// local cluster.
func BenchmarkAblationLoadBalancing(b *testing.B) {
	run := func(balanced bool) des.Time {
		sim := des.New()
		grid := cluster.LocalHeterogeneous(sim, 9)
		env := pm2.MustNew(grid, pm2.Sparse, nil)
		prob := problems.NewLinear(45000, 12, 0.85, 19)
		if balanced {
			prob.Weights = grid.SpeedWeights()
		}
		rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-7, MaxIters: 3000000})
		return rep.Elapsed
	}
	var equal, balanced des.Time
	for i := 0; i < b.N; i++ {
		equal = run(false)
		balanced = run(true)
	}
	b.StopTimer()
	fmt.Printf("Ablation load balancing (9 heterogeneous procs): equal blocks %v, speed-proportional %v\n\n", equal, balanced)
	b.ReportMetric(equal.Seconds(), "vsec/equal")
	b.ReportMetric(balanced.Seconds(), "vsec/balanced")
}
