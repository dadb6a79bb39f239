package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// rawOutputs takes the next n raw outputs of u the way fill consumes
// them, refill by refill.
func rawOutputs(u *uniforms, n int) []uint64 {
	out := make([]uint64, 0, n)
	for len(out) < n {
		if u.r == u.w {
			u.refill(n - len(out))
		}
		m := min(n-len(out), u.w-u.r)
		out = append(out, u.buf[u.r:u.r+m]...)
		u.r += m
	}
	return out
}

// The recurrence uniforms continues is math/rand's own: after any warm-up
// (spreadOffsets consumes a seed-dependent number of draws, up to about
// 40), in takes of every size around the short lag (273) and the register
// (607), its raw outputs are the Source's, and fill's values are
// sign·(0.5 + Rand.Float64()). If a Go release changes math/rand v1, this
// fails before any generated matrix moves.
func TestUniformsMatchMathRand(t *testing.T) {
	takes := []int{1, 272, 273, 274, 606, 607, 608, 1, 2184, 2185, 5000}
	for _, seed := range []int64{0, 1, 20040426, -5} {
		for warm := 0; warm <= 40; warm++ {
			src := rand.NewSource(seed).(rand.Source64)
			ref := rand.New(rand.NewSource(seed))
			for i := 0; i < warm; i++ {
				src.Uint64()
				ref.Uint64()
			}
			u := &uniforms{src: src}
			for _, n := range takes {
				got := rawOutputs(u, n)
				for i, x := range got {
					if want := ref.Uint64(); x != want {
						t.Fatalf("seed %d warm-up %d: take of %d, output %d = %#x, math/rand gives %#x", seed, warm, n, i, x, want)
					}
				}
			}
			for k, n := range takes {
				sign := float64(1 - 2*(k%2))
				dst := make([]float64, n)
				u.fill(dst, sign)
				for i, v := range dst {
					if want := sign * (0.5 + ref.Float64()); math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("seed %d warm-up %d: fill of %d, value %d = %v, want %v", seed, warm, n, i, v, want)
					}
				}
			}
		}
	}
	// One long run, 100 000 draws after 37 of warm-up.
	for _, seed := range []int64{0, 1, 20040426, -5} {
		src := rand.NewSource(seed).(rand.Source64)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 37; i++ {
			src.Uint64()
			ref.Float64()
		}
		dst := make([]float64, 100000)
		u := &uniforms{src: src}
		u.fill(dst, 1)
		for i, v := range dst {
			if want := 0.5 + ref.Float64(); v != want {
				t.Fatalf("seed %d: draw %d = %v, want %v", seed, i, v, want)
			}
		}
	}
}

// scripted is a Source64 that replays fixed outputs, masked to 63 bits
// for Int63 as math/rand's own source masks them.
type scripted struct{ xs []uint64 }

func (s *scripted) Uint64() uint64 { x := s.xs[0]; s.xs = s.xs[1:]; return x }
func (s *scripted) Int63() int64   { return int64(s.Uint64() & (1<<63 - 1)) }
func (s *scripted) Seed(int64)     {}

// Rand.Float64 draws again when an output converts to 1.0 (2⁶³−1 does,
// with or without the top bit); toUniforms stops before such an output,
// and fill skips it exactly as Float64 does.
func TestUniformsRedrawOnOne(t *testing.T) {
	for _, one := range []uint64{1<<63 - 1, math.MaxUint64, 1<<63 - 1<<9} {
		dst := make([]float64, 3)
		if c := toUniforms(dst, []uint64{5, one, 7}, 1); c != 1 {
			t.Fatalf("toUniforms wrote %d values before %#x, want 1", c, one)
		}
		outs := []uint64{5, one, 7, one, one, 9}
		ref := rand.New(&scripted{xs: append([]uint64(nil), outs...)})
		u := &uniforms{src: &scripted{xs: append([]uint64(nil), outs...)}}
		got := make([]float64, 3)
		u.fill(got[:1], -1)
		u.fill(got[1:], -1)
		for i, v := range got {
			if want := -(0.5 + ref.Float64()); v != want {
				t.Fatalf("output %#x: value %d = %v, want %v", one, i, v, want)
			}
		}
	}
}

// NewSystemSum's checksum, taken during assembly, is SystemSum's, under
// GOMAXPROCS 1 and 2.
func TestNewSystemSumIsSystemSum(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, s := range []struct{ n, nd int }{{2, 1}, {13, 12}, {608, 30}, {3000, 12}, {40000, 12}} {
				a, b, x, sum := NewSystemSum(s.n, s.nd, 0.85, 20040426)
				if want := SystemSum(a, b, x); sum != want {
					t.Errorf("n=%d numDiags=%d: NewSystemSum's sum %#x, SystemSum %#x", s.n, s.nd, sum, want)
				}
			}
		})
	}
}

// The lane checksum catches a one-bit flip of any single word, at the
// first, a middle and the last position of slices of every length mod the
// lane count, and does not depend on how checksum splits its parts.
func TestLaneSumCatchesEveryWord(t *testing.T) {
	for n := 1; n <= 3*sumLanes+1; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + 0.5
		}
		clean := laneSum(xs)
		for i := range xs {
			for _, bit := range []uint{0, 31, 63} {
				xs[i] = math.Float64frombits(math.Float64bits(xs[i]) ^ 1<<bit)
				if laneSum(xs) == clean {
					t.Fatalf("n=%d: flipping bit %d of word %d left the checksum unchanged", n, bit, i)
				}
				xs[i] = math.Float64frombits(math.Float64bits(xs[i]) ^ 1<<bit)
			}
		}
	}
	big := make([]float64, parallelSumFloats)
	parts := [][]float64{big, {1}, big[:7], big}
	want := []uint64{laneSum(big), laneSum(parts[1]), laneSum(big[:7]), laneSum(big)}
	if split, one := checksum(fpInit, parts...), fold(fpInit, want); split != one {
		t.Fatalf("checksum on two goroutines %#x, on one %#x", split, one)
	}
}
