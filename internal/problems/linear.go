// Package problems adapts the two test problems of the paper's §4 to the
// AIAC engine's Problem interface:
//
//   - the sparse linear system of §4.2 (a diagonally dominant banded
//     matrix with a known solution), iterated by fixed-step preconditioned
//     gradient descent (Equ. 4) and distributed by contiguous row blocks
//     — the all-to-all workload of Table 2;
//   - the non-linear advection-diffusion-reaction chemical problem of
//     §4.2, advanced by implicit time steps whose inner non-linear systems
//     are solved either by AIAC multisplitting Newton (strategy 2, RunChem)
//     or by the classical global Newton-GMRES baseline whose distributed
//     dot products synchronise the whole machine set (strategy 1,
//     RunChemSyncGlobal) — the neighbour-exchange workload of Table 3 and
//     Figure 3.
//
// Both adapters report per-iteration residuals (Equ. 5-6) and flop counts,
// which the simulated CPUs turn into virtual compute time.
package problems

import (
	"fmt"

	"aiac/internal/aiac"
	"aiac/internal/sparse"
)

// Linear is the sparse linear system A·x = b iterated by
// x ← x + γ·M⁻¹(b − A·x) (paper Equ. 4), distributed by contiguous row
// blocks.
type Linear struct {
	// A is the system matrix, always a *sparse.DIA; its interface type
	// goes in ROADMAP item 4(b).
	A     sparse.Operator
	B     []float64
	XTrue []float64 // known solution, for verification (not used in solving)
	Gamma float64

	scratch [][]float64 // per-rank matvec scratch
	shifts  [][]int     // per-rank band shifts into the rank's window
}

// NewLinear generates the test system with the given size and band count
// (Table 1 uses n = 2,000,000 with 30 sub-diagonals; experiments here
// default to a scaled-down size, see DESIGN.md).
func NewLinear(n, numDiags int, rho float64, seed int64) *Linear {
	return (*Cache)(nil).Linear(n, numDiags, rho, seed)
}

// Name implements aiac.Problem.
func (l *Linear) Name() string { return fmt.Sprintf("sparse-linear-n%d", l.A.Dim()) }

// Size implements aiac.Problem.
func (l *Linear) Size() int { return l.A.Dim() }

// PartitionBounds implements aiac.Problem.
func (l *Linear) PartitionBounds(nranks int) []int {
	l.scratch = make([][]float64, nranks)
	l.shifts = make([][]int, nranks)
	return sparse.Partition(l.A.Dim(), nranks)
}

// InitialVector implements aiac.Problem: x⁰ = 0.
func (l *Linear) InitialVector() []float64 { return make([]float64, l.A.Dim()) }

// DepsFor implements aiac.Problem: the columns the rank's rows touch,
// minus its own block.
func (l *Linear) DepsFor(rank int, bounds []int) []aiac.Segment {
	return blockDeps(l.A, rank, bounds)
}

// blockDeps is a matrix problem's dependency pattern: the columns of a
// that the rank's rows touch, minus the rank's own block.
func blockDeps(a sparse.Operator, rank int, bounds []int) []aiac.Segment {
	lo, hi := bounds[rank], bounds[rank+1]
	var deps []aiac.Segment
	for _, seg := range a.ColumnsTouched(lo, hi) {
		// Subtract [lo,hi).
		if seg.Hi <= lo || seg.Lo >= hi {
			deps = append(deps, aiac.Segment{Lo: seg.Lo, Hi: seg.Hi})
			continue
		}
		if seg.Lo < lo {
			deps = append(deps, aiac.Segment{Lo: seg.Lo, Hi: lo})
		}
		if seg.Hi > hi {
			deps = append(deps, aiac.Segment{Lo: hi, Hi: seg.Hi})
		}
	}
	return deps
}

// Window states the rank's window to the Loop: the columns its rows read,
// its own block among them (the main diagonal's).
func (l *Linear) Window(rank int, bounds []int) []aiac.Segment {
	cols := l.A.ColumnsTouched(bounds[rank], bounds[rank+1])
	win := make([]aiac.Segment, len(cols))
	for i, c := range cols {
		win[i] = aiac.Segment{Lo: c.Lo, Hi: c.Hi}
	}
	return win
}

// Update implements aiac.Problem: one gradient iteration on the local rows.
// x is the whole vector when it is n long and the rank's Window otherwise.
func (l *Linear) Update(rank int, bounds []int, x []float64) (residual, flops float64) {
	lo, hi := bounds[rank], bounds[rank+1]
	if l.scratch[rank] == nil {
		l.scratch[rank] = make([]float64, hi-lo)
	}
	if len(x) == l.A.Dim() {
		return l.A.GradientStep(lo, hi, l.Gamma, x, l.B, l.scratch[rank])
	}
	if l.shifts[rank] == nil {
		l.shifts[rank] = l.A.WindowShifts(lo, hi, l.A.ColumnsTouched(lo, hi))
	}
	return l.A.GradientStepShifted(lo, hi, l.Gamma, x, l.shifts[rank], l.B, l.scratch[rank])
}

// UpdateFlops states Update's flops before it runs: the 2·bands·rows +
// 5·rows GradientStep returns.
func (l *Linear) UpdateFlops(rank int, bounds []int) float64 {
	rows := float64(bounds[rank+1] - bounds[rank])
	return 2*float64(len(l.A.BandOffsets()))*rows + 5*rows
}

var _ aiac.Problem = (*Linear)(nil)
