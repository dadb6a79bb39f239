package sparse

import (
	"fmt"
	"math"
	"math/rand"
)

// NewSystemSum generates the paper's test system: an n×n matrix with the main
// diagonal plus numDiags off-diagonals whose offsets are spread over the
// full bandwidth of the matrix (so that, once rows are distributed over
// processors, the dependency graph is all-to-all, matching §5.1's "the
// communication scheme is all to all according to data dependencies").
//
// The matrix is made strictly diagonally dominant with dominance ratio rho
// (< 1): sum_j != i |a_ij| = rho * |a_ii|, which bounds the spectral radius
// of the Jacobi iteration matrix by rho and guarantees convergence of both
// the synchronous and the asynchronous iterations (El Tarazi's condition).
// The right-hand side is chosen so the exact solution is known
// (x*_i = 1 + i mod 3), letting tests verify convergence to the true
// solution, not merely stagnation.
//
// The system is a pure function of its arguments, and its bits are those
// of the original row loop (kernels.AssembleBaseline, held to them by
// tests): a rand.New(rand.NewSource(seed)) stream draws the offsets, then
// one Float64 per in-range entry, band by band, rows ascending, each entry
// sign·(0.5 + u); the diagonal is each row's sum of magnitudes, added in
// band order, over rho; b = A·x*. The uniforms come from math/rand's own
// recurrence continued in batches (uniforms below), not through the
// Source; a second goroutine allocates bands ahead while this one draws,
// finishes half the rows, and never outlives the call. GOMAXPROCS does not
// change a bit.
//
// The returned matrix and vectors are immutable by convention: every
// solver in this repository only reads them (the kernels below write
// exclusively into caller-owned destination and scratch slices), which is
// what lets problems.Cache share one assembled system read-only across
// concurrent experiment cells. Code that needs a modified system must
// build its own.
//
// It returns the system's checksum too, equal to SystemSum(a, b, xTrue)
// but taken while the system is built: the second goroutine sums each
// band while the next one is drawn.
func NewSystemSum(n, numDiags int, rho float64, seed int64) (a *DIA, b, xTrue []float64, sum uint64) {
	if n < 2 || numDiags < 1 || numDiags >= n {
		panic(fmt.Sprintf("sparse: bad system shape n=%d numDiags=%d", n, numDiags))
	}
	if rho <= 0 || rho >= 1 {
		panic("sparse: dominance ratio must be in (0,1)")
	}
	src := rand.NewSource(seed).(rand.Source64)
	offsets := spreadOffsets(n, numDiags, rand.New(src))
	s := &assembly{a: &DIA{N: n, Offsets: append([]int{0}, offsets...)}, rho: rho}
	nb := len(s.a.Offsets)
	s.a.Diags = make([][]float64, nb)
	s.sums = make([]uint64, nb+2)
	u := &uniforms{src: src}

	// The partner allocates every band ahead of the draw, sums each drawn
	// band while the next is drawn, and finishes the second half of the
	// rows while this goroutine finishes the first.
	ahead, drawn := make(chan []float64, nb), make(chan int, nb)
	prepared, done := make(chan struct{}), make(chan struct{})
	h := n / 2
	go func() {
		s.prepare(ahead)
		close(prepared)
		for k := range drawn {
			s.sums[k] = laneSum(s.a.Diags[k])
		}
		s.finishRows(h, n)
		close(done)
	}()
	for k := 1; k < nb; k++ {
		s.a.Diags[k] = <-ahead
		s.draw(u, k)
		drawn <- k
	}
	close(drawn)
	<-prepared
	s.finishRows(0, h)
	<-done
	onBoth(func() { s.sums[0] = laneSum(s.a.Diags[0]) }, func() { s.sums[nb] = laneSum(s.b) })
	return s.a, s.b, s.xTrue, fold(s.a.header(), s.sums)
}

// finishTileRows is the row tile of the finishing pass: 2048 rows of
// every band stay cache-resident between the row sums and b = A·x*.
const finishTileRows = 2048

// assembly is one system under construction. The main diagonal,
// a.Diags[0], first accumulates each row's off-diagonal magnitudes.
type assembly struct {
	a        *DIA
	b, xTrue []float64
	rho      float64
	sums     []uint64 // laneSum of every band, then of b, then of xTrue
}

// prepare allocates the main diagonal, every band at the length of the
// rows it covers (handing each to ahead), b and xTrue, and fills and sums
// xTrue.
func (s *assembly) prepare(ahead chan<- []float64) {
	n := s.a.N
	s.a.Diags[0] = make([]float64, n)
	for k := 1; k < len(s.a.Offsets); k++ {
		ahead <- make([]float64, bandLen(n, s.a.Offsets[k]))
	}
	s.b = make([]float64, n)
	s.xTrue = make([]float64, n)
	for i := range s.xTrue {
		s.xTrue[i] = float64(1 + i%3)
	}
	s.sums[len(s.sums)-1] = laneSum(s.xTrue)
}

// draw fills band k — every row it covers — from the uniform stream:
// random magnitudes in [0.5, 1.5), alternating sign.
func (s *assembly) draw(u *uniforms, k int) {
	sign := 1.0
	if k%2 == 0 {
		sign = -1
	}
	u.fill(s.a.Diags[k], sign)
}

// finishRows makes the diagonal of rows [lo,hi) — each row's sum of
// off-diagonal magnitudes, added in band order as the row loop added them
// (a band that leaves the row out would add +0, which changes no sum),
// over rho — and their entries of b = A·x*, a row tile at a time.
// RowRangeMulVec reads the diagonal only on the rows it computes, so the
// two halves of a system finish independently.
func (s *assembly) finishRows(lo, hi int) {
	rs := s.a.Diags[0]
	for tlo := lo; tlo < hi; tlo += finishTileRows {
		thi := min(tlo+finishTileRows, hi)
		for k := 1; k < len(s.a.Offsets); k++ {
			blo, bhi := bandRows(s.a.N, s.a.Offsets[k])
			if rlo, rhi := max(blo, tlo), min(bhi, thi); rlo < rhi {
				addAbs(rs[rlo:rhi], s.a.Diags[k][rlo-blo:rhi-blo])
			}
		}
		d := rs[tlo:thi]
		for i, rowSum := range d {
			if rowSum == 0 {
				rowSum = 1 // isolated row: keep the diagonal well-scaled
			}
			d[i] = rowSum / s.rho
		}
		s.a.RowRangeMulVec(tlo, thi, s.b[tlo:thi], s.xTrue)
	}
}

// addAbs adds |d[i]| into acc[i].
//
//lint:hotpath
func addAbs(acc, d []float64) {
	d = d[:len(acc)]
	for i := range acc {
		acc[i] += math.Abs(d[i])
	}
}

// spreadOffsets picks numDiags distinct non-zero offsets covering both
// sides of the diagonal and reaching across the matrix width, so a row
// block owned by one processor depends on most other blocks.
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

// math/rand's (v1) source is an additive lagged-Fibonacci generator:
// rngSource.Uint64 stores vec[feed]+vec[tap] into vec[feed], and feed and
// tap step down together, lfgTap apart. So once lfgLen outputs have been
// drawn, its register holds exactly the last lfgLen outputs, and every
// later output is
//
//	x[n] = x[n−lfgLen] + x[n−lfgTap]  (mod 2⁶⁴)
//
// which uniforms computes itself, lfgTap or more at a time: no output of
// a run of lfgTap depends on another. TestUniformsMatchMathRand fails
// first if a Go release ever changes the generator.
const (
	lfgLen = 607 // math/rand's rngLen
	lfgTap = 273 // math/rand's rngTap
	// lfgBatch is how many outputs one refill computes: enough that
	// moving the lfgLen-word history to the front of the buffer costs
	// little per output, few enough that the buffer stays in L1.
	lfgBatch = 8 * lfgTap
)

// uniforms continues a rand.Source64's stream of Float64 values. The
// first lfgLen outputs come from the source itself — and a system that
// needs fewer draws never gets further — after that from the recurrence.
type uniforms struct {
	src   rand.Source64
	drawn int // outputs taken from src, up to lfgLen
	// buf[r:w] are outputs not yet consumed; once the recurrence runs,
	// buf[w-lfgLen:w] are the last lfgLen outputs.
	buf  [lfgLen + lfgBatch]uint64
	r, w int
}

// fill sets dst[i] = sign·(0.5 + u_i) for the stream's next uniforms u_i,
// exactly as sign*(0.5 + rng.Float64()) would.
func (u *uniforms) fill(dst []float64, sign float64) {
	for len(dst) > 0 {
		if u.r == u.w {
			u.refill(len(dst))
		}
		m := min(len(dst), u.w-u.r)
		c := toUniforms(dst[:m], u.buf[u.r:u.r+m], sign)
		dst, u.r = dst[c:], u.r+c
		if c < m {
			u.r++ // Float64 draws again on 1.0
		}
	}
}

// refill makes at least one output available, want of them if the source
// still gives them, or a batch of the recurrence.
func (u *uniforms) refill(want int) {
	if u.drawn < lfgLen {
		k := min(want, lfgLen-u.drawn)
		for i := u.drawn; i < u.drawn+k; i++ {
			u.buf[i] = u.src.Uint64()
		}
		u.r, u.w, u.drawn = u.drawn, u.drawn+k, u.drawn+k
		return
	}
	copy(u.buf[:lfgLen], u.buf[u.w-lfgLen:u.w])
	x := u.buf[:]
	for i := lfgLen; i < len(x); i++ {
		x[i] = x[i-lfgLen] + x[i-lfgTap]
	}
	u.r, u.w = lfgLen, len(x)
}

// toUniforms converts src to dst as rand.Float64 does — the low 63 bits
// over 2⁶³ — scaled as sign·(0.5 + f), and stops before a value that
// converts to 1.0, which Float64 never returns. It returns how many it
// wrote.
//
//lint:hotpath
func toUniforms(dst []float64, src []uint64, sign float64) int {
	src = src[:len(dst)]
	for i, x := range src {
		f := float64(int64(x&(1<<63-1))) / (1 << 63)
		if f == 1 {
			return i
		}
		dst[i] = sign * (0.5 + f)
	}
	return len(dst)
}
