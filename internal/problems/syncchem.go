package problems

import (
	"fmt"
	"math"

	"aiac/internal/aiac"
	"aiac/internal/chem"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/gmres"
	"aiac/internal/marcel"
)

// This file implements the *classical* synchronous parallelization of the
// non-linear problem — the paper's §4.2 "first strategy": Newton's method
// on the entire system with a parallel linear solver over the global
// system. Every inner GMRES iteration is a synchronous distributed
// operation (ghost exchange for the matrix-vector product, allreduce for
// the orthogonalisation dot products), so "synchronizations are necessary
// between two consecutive iterations of the Newton process" — which is
// exactly why the asynchronous multisplitting version (strategy 2, package
// aiac + NewChemStep) wins by the factors of Table 3 and Figure 3.

// RunChemSyncGlobal advances the chemical problem from y0 over [0, tEnd] in
// steps of h using lockstep global Newton + distributed GMRES on the given
// grid/environment. It mirrors RunChem's reporting so the two versions can
// be compared row by row.
//
// The environment must use the mono-threaded receive model (sync-mpi, the
// environment of the paper's strategy 1): the ghost exchange re-targets its
// data sink at a different buffer on every call, which is only safe when
// receipts are drained inside SyncExchangeK itself. On a threaded receive
// model a fast neighbour's next-round message could be incorporated through
// the previous round's sink — internal/matrix, the one caller outside the
// ablation of the root bench_test.go, routes the threaded environments to
// the lockstep multisplitting version (RunChem with Mode Sync) instead.
func RunChemSyncGlobal(grid *cluster.Grid, env aiac.Env, p *chem.Problem, y0 []float64, h, tEnd float64, gp gmres.Params, eps float64, maxNewton int) *ChemRun {
	if gp.Tol <= 0 {
		gp.Tol = 1e-6
	}
	if gp.Restart <= 0 {
		gp.Restart = 20
	}
	if gp.MaxIters <= 0 {
		gp.MaxIters = 200
	}
	if eps <= 0 {
		eps = 1e-6
	}
	if maxNewton <= 0 {
		maxNewton = 50
	}
	run := &ChemRun{Y: make([]float64, len(y0))}
	copy(run.Y, y0)
	start := grid.Sim.Now()
	for t := 0.0; t < tEnd-1e-9; t += h {
		rep := runSyncStep(grid, env, p, run.Y, h, t+h, gp, eps, maxNewton)
		run.Steps = append(run.Steps, rep)
		run.Y = rep.X
	}
	run.Elapsed = grid.Sim.Now() - start
	return run
}

// runSyncStep solves one implicit-Euler step in lockstep: one process per
// rank, every collective a suspension of it.
func runSyncStep(grid *cluster.Grid, env aiac.Env, p *chem.Problem, yOld []float64, h, tEnd float64, gp gmres.Params, eps float64, maxNewton int) *aiac.Report {
	nranks := grid.Size()
	rowBounds := chem.StripPartition(p.NZ, nranks)
	bounds := make([]int, nranks+1)
	for i, zr := range rowBounds {
		lo, _ := p.RowSegment(zr, zr)
		bounds[i] = lo
	}

	sim := grid.Sim
	startT := sim.Now()
	iters := make([]int, nranks)
	finish := make([]des.Time, nranks)
	// Shared state vector: under the DES only one process runs at a time
	// and the lockstep structure means every rank reads ghost rows only
	// after the exchange that wrote them.
	y := make([]float64, len(yOld))
	copy(y, yOld)
	converged := false

	for r := 0; r < nranks; r++ {
		r := r
		sim.SpawnTask(fmt.Sprintf("syncrank%d", r), func(proc *des.Proc) {
			comm := env.Comm(r)
			comm.ResetSession()
			cpu := grid.Machines[r].CPU
			sys := chem.NewEulerSystem(p, yOld, h, tEnd)
			s := newSyncStrip(sys, p, comm, cpu, bounds, rowBounds, r, gp)
			exit := func() { finish[r] = proc.Now() }
			var newton func(k int)
			newton = func(k int) {
				if k >= maxNewton {
					exit()
					return
				}
				iters[r]++
				s.newtonIterationK(proc, y, func(res float64) {
					if res < eps {
						if r == 0 {
							converged = true
						}
						exit()
						return
					}
					newton(k + 1)
				})
			}
			comm.BarrierK(proc, func() { newton(0) })
		})
	}
	sim.Run()

	end := startT
	for _, f := range finish {
		if f > end {
			end = f
		}
	}
	rep := &aiac.Report{
		Elapsed: end - startT, Start: startT, End: end,
		X: y, ItersPerRank: iters, Reason: aiac.StopIterCap,
	}
	if converged {
		rep.Reason = aiac.StopConverged
	}
	return rep
}

// syncStrip is one rank's share of the global Newton/GMRES iteration.
type syncStrip struct {
	sys       *chem.EulerSystem
	p         *chem.Problem
	comm      aiac.Comm
	cpu       *marcel.CPU
	bounds    []int
	rowBounds []int
	rank      int
	gp        gmres.Params

	lo, hi int // state index range of the strip
	n      int

	// Distributed GMRES storage: strip-local pieces of the Krylov basis
	// plus the replicated Hessenberg/rotation state (identical on every
	// rank because it is built from allreduced dot products).
	v    [][]float64
	hh   [][]float64
	hcol []float64
	g    []float64
	cs   []float64
	sn   []float64
	yv   []float64
	wbuf []float64 // full-length scratch for exchanges & operators
	gbuf []float64
}

func newSyncStrip(sys *chem.EulerSystem, p *chem.Problem, comm aiac.Comm, cpu *marcel.CPU, bounds, rowBounds []int, rank int, gp gmres.Params) *syncStrip {
	lo, hi := bounds[rank], bounds[rank+1]
	m := gp.Restart
	s := &syncStrip{
		sys: sys, p: p, comm: comm, cpu: cpu,
		bounds: bounds, rowBounds: rowBounds, rank: rank, gp: gp,
		lo: lo, hi: hi, n: hi - lo,
		hcol: make([]float64, m+1),
		g:    make([]float64, m+1),
		cs:   make([]float64, m),
		sn:   make([]float64, m),
		yv:   make([]float64, m),
		wbuf: make([]float64, sys.Dim()),
		gbuf: make([]float64, sys.Dim()),
	}
	s.v = make([][]float64, m+1)
	for i := range s.v {
		s.v[i] = make([]float64, s.n)
	}
	return s
}

// exchangeGhostsK synchronously refreshes the ghost rows of buf around this
// rank's strip (writing into buf at neighbour rows), sending this rank's
// boundary rows to its neighbours, then runs k.
func (s *syncStrip) exchangeGhostsK(proc *des.Proc, buf []float64, k func()) {
	zlo, zhi := s.rowBounds[s.rank], s.rowBounds[s.rank+1]
	var sends []aiac.Outgoing
	nRecv := 0
	if s.rank > 0 {
		lo, hi := s.p.RowSegment(zlo, zlo+1)
		vals := make([]float64, hi-lo)
		copy(vals, buf[lo:hi])
		sends = append(sends, aiac.Outgoing{To: s.rank - 1, Key: 4*s.rank + 0, Lo: lo, Values: vals})
		nRecv++
	}
	if s.rank < len(s.rowBounds)-2 {
		lo, hi := s.p.RowSegment(zhi-1, zhi)
		vals := make([]float64, hi-lo)
		copy(vals, buf[lo:hi])
		sends = append(sends, aiac.Outgoing{To: s.rank + 1, Key: 4*s.rank + 1, Lo: lo, Values: vals})
		nRecv++
	}
	s.comm.SetDataSink(func(m aiac.DataMsg) {
		copy(buf[m.Lo:m.Lo+len(m.Values)], m.Values)
	})
	s.comm.SyncExchangeK(proc, sends, nRecv, k)
}

// newtonIterationK performs one lockstep global Newton iteration and hands
// k the global scaled residual.
func (s *syncStrip) newtonIterationK(proc *des.Proc, y []float64, k func(res float64)) {
	lo, hi, n := s.lo, s.hi, s.n
	// Refresh ghosts of the current iterate, then evaluate the local
	// residual G(y).
	s.exchangeGhostsK(proc, y, func() {
		s.sys.EvalG(s.gbuf, y, lo, hi)
		s.cpu.ComputeK(proc, s.sys.GFlops(lo, hi), func() {
			rhs := make([]float64, n)
			for i := 0; i < n; i++ {
				rhs[i] = -s.gbuf[lo+i]
			}
			// Distributed GMRES for J δ = rhs, δ starting at zero.
			delta := make([]float64, n)
			s.gmresSolveK(proc, y, rhs, delta, func() {
				// Apply the step and compute the global residual.
				var maxs float64
				for i := 0; i < n; i++ {
					y[lo+i] += delta[i]
					scale := math.Abs(y[lo+i])
					if scale < 1 {
						scale = 1
					}
					if r := math.Abs(delta[i]) / scale; r > maxs {
						maxs = r
					}
				}
				s.cpu.ComputeK(proc, 3*float64(n), func() {
					s.comm.AllreduceMaxK(proc, maxs, k)
				})
			})
		})
	})
}

// applyJK computes dst = J·v on the strip for a *globally consistent* v:
// the strip piece is placed into a full-length buffer whose ghost rows are
// refreshed synchronously first, so the product includes the true coupling
// (unlike multisplitting's frozen ghosts).
func (s *syncStrip) applyJK(proc *des.Proc, y, vStrip, dst []float64, k func()) {
	for i := range s.wbuf {
		s.wbuf[i] = 0
	}
	copy(s.wbuf[s.lo:s.hi], vStrip)
	s.exchangeGhostsK(proc, s.wbuf, func() {
		s.sys.ApplyJ(s.gbuf, s.wbuf, y, s.lo, s.hi)
		s.cpu.ComputeK(proc, s.sys.JFlops(s.lo, s.hi), func() {
			copy(dst, s.gbuf[s.lo:s.hi])
			k()
		})
	})
}

// dotsK computes a distributed dot product per partial (one allreduce).
func (s *syncStrip) dotsK(proc *des.Proc, partials []float64, k func([]float64)) {
	s.cpu.ComputeK(proc, 2*float64(s.n)*float64(len(partials)), func() {
		s.comm.AllreduceSumK(proc, partials, k)
	})
}

// gmresSolveK runs one restarted distributed GMRES cycle set. The nested
// outer/Arnoldi loops are recursive continuations, one collective per
// suspension.
func (s *syncStrip) gmresSolveK(proc *des.Proc, y, rhs, delta []float64, done func()) {
	m := s.gp.Restart
	n := s.n
	maxOuter := s.gp.MaxIters/m + 1
	w := make([]float64, n)

	// Global norm of rhs for the relative tolerance.
	s.dotsK(proc, []float64{dotLocal(rhs, rhs)}, func(bns []float64) {
		bnorm := math.Sqrt(bns[0])
		if bnorm == 0 {
			done()
			return
		}
		var outer func(o int)
		outer = func(o int) {
			if o >= maxOuter {
				done()
				return
			}
			// r0 = rhs - J δ.
			s.applyJK(proc, y, delta, w, func() {
				for i := range w {
					w[i] = rhs[i] - w[i]
				}
				s.dotsK(proc, []float64{dotLocal(w, w)}, func(b2 []float64) {
					beta := math.Sqrt(b2[0])
					if beta/bnorm <= s.gp.Tol {
						done()
						return
					}
					copy(s.v[0], w)
					for i := range s.v[0] {
						s.v[0][i] /= beta
					}
					for i := range s.g {
						s.g[i] = 0
					}
					s.g[0] = beta

					cycleEnd := func(k int) {
						s.backSubstitute(k, delta)
						if math.Abs(s.g[k])/bnorm <= s.gp.Tol || k < m {
							done()
							return
						}
						outer(o + 1)
					}
					var arnoldi func(k int)
					arnoldi = func(k int) {
						if k >= m {
							cycleEnd(k)
							return
						}
						// Arnoldi with classical Gram-Schmidt: the k+1
						// projection coefficients and the new norm are
						// batched into a single allreduce each — the
						// per-iteration synchronizations of the
						// classical parallel GMRES.
						s.applyJK(proc, y, s.v[k], w, func() {
							partials := make([]float64, k+1)
							for i := 0; i <= k; i++ {
								partials[i] = dotLocal(w, s.v[i])
							}
							s.dotsK(proc, partials, func(coefs []float64) {
								for i := 0; i <= k; i++ {
									s.hcolSet(i, coefs[i])
									for j := range w {
										w[j] -= coefs[i] * s.v[i][j]
									}
								}
								s.cpu.ComputeK(proc, 2*float64(n)*float64(k+1), func() {
									s.dotsK(proc, []float64{dotLocal(w, w)}, func(n2 []float64) {
										hk1 := math.Sqrt(n2[0])
										s.hcolSet(k+1, hk1)
										if hk1 > 1e-300 {
											copy(s.v[k+1], w)
											for j := range s.v[k+1] {
												s.v[k+1][j] /= hk1
											}
										}
										// Givens updates are replicated on
										// every rank (identical global
										// values), no communication.
										s.applyGivens(k)
										if math.Abs(s.g[k+1])/bnorm <= s.gp.Tol {
											cycleEnd(k + 1)
											return
										}
										arnoldi(k + 1)
									})
								})
							})
						})
					}
					arnoldi(0)
				})
			})
		}
		outer(0)
	})
}

func (s *syncStrip) hcolSet(i int, v float64) { s.hcol[i] = v }

// applyGivens folds the freshly computed Hessenberg column s.hcol into the
// triangular system using stored rotations, then creates rotation k.
func (s *syncStrip) applyGivens(k int) {
	if s.hh == nil {
		s.hh = make([][]float64, len(s.v))
		for i := range s.hh {
			s.hh[i] = make([]float64, len(s.cs))
		}
	}
	for i := 0; i <= k+1 && i < len(s.hh); i++ {
		s.hh[i][k] = s.hcol[i]
	}
	for i := 0; i < k; i++ {
		t := s.cs[i]*s.hh[i][k] + s.sn[i]*s.hh[i+1][k]
		s.hh[i+1][k] = -s.sn[i]*s.hh[i][k] + s.cs[i]*s.hh[i+1][k]
		s.hh[i][k] = t
	}
	a, b := s.hh[k][k], s.hh[k+1][k]
	r := math.Hypot(a, b)
	if r == 0 {
		s.cs[k], s.sn[k] = 1, 0
	} else {
		s.cs[k], s.sn[k] = a/r, b/r
	}
	s.hh[k][k] = s.cs[k]*a + s.sn[k]*b
	s.hh[k+1][k] = 0
	s.g[k+1] = -s.sn[k] * s.g[k]
	s.g[k] = s.cs[k] * s.g[k]
}

// backSubstitute solves the k×k triangular system and updates delta.
func (s *syncStrip) backSubstitute(k int, delta []float64) {
	for i := k - 1; i >= 0; i-- {
		s.yv[i] = s.g[i]
		for j := i + 1; j < k; j++ {
			s.yv[i] -= s.hh[i][j] * s.yv[j]
		}
		s.yv[i] /= s.hh[i][i]
	}
	for i := 0; i < k; i++ {
		for j := range delta {
			delta[j] += s.yv[i] * s.v[i][j]
		}
	}
}

func dotLocal(a, b []float64) float64 {
	var sum float64
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}
