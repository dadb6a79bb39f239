package kernels

import (
	"fmt"
	"math"
	"math/rand"

	"aiac/internal/sparse"
)

// AssembleBaseline is the frozen sparse.NewSystem as it stood before
// assembly was batched: n-long bands (the layout of FullLength); one
// rng.Float64 per in-range entry through the Source, band by band; then
// the row loop summing every band's magnitude into the diagonal; then
// b = A·x* by the shipped MulVec, all on one goroutine. The shipped
// NewSystem is held to its bits (each band's in-range run, b and xTrue)
// and measured against it, with its checksum (AssembleBaselineSum), in
// KERNELS.md's assembly table.
func AssembleBaseline(n, numDiags int, rho float64, seed int64) (*sparse.DIA, []float64, []float64) {
	if n < 2 || numDiags < 1 || numDiags >= n {
		panic(fmt.Sprintf("sparse: bad system shape n=%d numDiags=%d", n, numDiags))
	}
	if rho <= 0 || rho >= 1 {
		panic("sparse: dominance ratio must be in (0,1)")
	}
	rng := rand.New(rand.NewSource(seed))
	offsets := spreadOffsets(n, numDiags, rng)
	a := &sparse.DIA{N: n, Offsets: append([]int{0}, offsets...)}
	a.Diags = make([][]float64, len(a.Offsets))
	for k := range a.Diags {
		a.Diags[k] = make([]float64, n)
	}
	// Random off-diagonal values in [0.5, 1.5), alternating sign.
	for k := 1; k < len(a.Offsets); k++ {
		o := a.Offsets[k]
		sign := 1.0
		if k%2 == 0 {
			sign = -1
		}
		for i := 0; i < n; i++ {
			j := i + o
			if j < 0 || j >= n {
				continue
			}
			a.Diags[k][i] = sign * (0.5 + rng.Float64())
		}
	}
	// Diagonal: row sum of |off-diagonals| divided by rho.
	for i := 0; i < n; i++ {
		var rowSum float64
		for k := 1; k < len(a.Offsets); k++ {
			rowSum += math.Abs(a.Diags[k][i])
		}
		if rowSum == 0 {
			rowSum = 1 // isolated row: keep the diagonal well-scaled
		}
		a.Diags[0][i] = rowSum / rho
	}
	// b = A * x_true.
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(1 + i%3)
	}
	b := make([]float64, n)
	inRange(a).MulVec(b, xTrue)
	return a, b, xTrue
}

// inRange returns a view of a full-length DIA (FullLength's layout) in
// the shipped one: each band cut, without a copy, to the rows it covers.
func inRange(full *sparse.DIA) *sparse.DIA {
	a := &sparse.DIA{N: full.N, Offsets: full.Offsets, Diags: make([][]float64, len(full.Diags))}
	for k, o := range full.Offsets {
		a.Diags[k] = full.Diags[k][max(0, -o):min(full.N, full.N-o)]
	}
	return a
}

// AssembleBaselineSum is AssembleBaseline followed by the checksum the
// problem cache took of every system it built before assembly was batched:
// one serial FNV-1a chain over n, the offsets and every band (the old
// DIA.Fingerprint), mixed into a second chain that then runs over b and
// xTrue. Its value is not the shipped checksum's; the assembly table times
// it, because a cache build paid for both.
func AssembleBaselineSum(n, numDiags int, rho float64, seed int64) (*sparse.DIA, []float64, []float64, uint64) {
	a, b, xTrue := AssembleBaseline(n, numDiags, rho, seed)
	const prime = 1099511628211
	mix := func(sum, w uint64) uint64 { return (sum ^ w) * prime }
	fp := mix(14695981039346656037, uint64(a.N))
	for _, o := range a.Offsets {
		fp = mix(fp, uint64(int64(o)))
	}
	for _, d := range a.Diags {
		for _, v := range d {
			fp = mix(fp, math.Float64bits(v))
		}
	}
	sum := mix(14695981039346656037, fp)
	for _, xs := range [][]float64{b, xTrue} {
		for _, v := range xs {
			sum = mix(sum, math.Float64bits(v))
		}
	}
	return a, b, xTrue, sum
}

// spreadOffsets is the frozen offset draw AssembleBaseline starts with.
func spreadOffsets(n, numDiags int, rng *rand.Rand) []int {
	seen := map[int]bool{0: true}
	var offs []int
	// Half the offsets on a deterministic spread, half random, alternating
	// sign: this keeps the dependency pattern reproducible per seed while
	// covering the full width.
	for len(offs) < numDiags {
		var o int
		switch len(offs) % 2 {
		case 0: // deterministic spread across the width
			step := (n - 1) / (numDiags + 1)
			if step == 0 {
				step = 1
			}
			o = (len(offs)/2 + 1) * step
			if len(offs)%4 == 2 {
				o = -o
			}
		default: // random
			o = 1 + rng.Intn(n-1)
			if rng.Intn(2) == 0 {
				o = -o
			}
		}
		for seen[o] {
			o++
			if o >= n {
				o = -(n - 1)
			}
			if o == 0 {
				o = 1
			}
		}
		seen[o] = true
		offs = append(offs, o)
	}
	return offs
}
