package sparse

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"unsafe"
)

// TestMain runs the whole suite once per kernel path: as the process chose
// it, then — where that was the vector path — again on the portable
// primitives. A fuzzing run (coordinator or worker) makes the one pass the
// fuzz engine expects; FuzzGradientStepPaths drives both paths itself.
func TestMain(m *testing.M) {
	flag.Parse()
	fuzzing := flag.Lookup("test.fuzz").Value.String() != "" ||
		flag.Lookup("test.fuzzworker").Value.String() == "true"
	startup = kern
	fmt.Printf("kernel path: %s\n", KernelPath())
	code := m.Run()
	if code == 0 && !fuzzing && kern.path != portable.path {
		kern = portable
		fmt.Printf("kernel path: %s\n", KernelPath())
		code = m.Run()
	}
	os.Exit(code)
}

// startup is the path the process chose, kept by TestMain so that the
// second pass can still reach the vector primitives.
var startup bandKernels

// vector returns the start-up path's primitives, skipping the test where
// that is the portable path already and there is nothing to compare.
func vector(t testing.TB) bandKernels {
	if startup.path == portable.path {
		t.Skip("no vector path on this machine: the portable primitives are the only ones")
	}
	return startup
}

// specials are the values on which a vector unit could plausibly part
// ways with scalar code: NaN, infinities, signed zeros, denormals and the
// ends of the normal range.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -3e-320,
	math.MaxFloat64, -math.MaxFloat64, 2.2250738585072014e-308, 1, -1, 1.5e-154,
}

// misaligned returns a length-n slice whose first element sits off
// elements past a 32-byte boundary.
func misaligned(n, off int) []float64 {
	buf := make([]float64, n+8)
	skip := 0
	for uintptr(unsafe.Pointer(&buf[skip]))%32 != 0 {
		skip++
	}
	return buf[skip+off:][:n:n]
}

// fill draws n values: mostly ordinary, every fourth or so a special.
func fill(rng *rand.Rand, v []float64, special bool) {
	for i := range v {
		v[i] = rng.NormFloat64()
		if special && rng.Intn(4) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// same reports bit equality, except that any NaN equals any NaN: which
// operand's payload an x86 operation on two NaNs keeps depends on operand
// order, which neither path promises.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameSlice(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !same(got[i], want[i]) {
			t.Fatalf("%s: element %d = %x (%v), portable %x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestPrimitivesMatchPortable holds the vector primitives to the portable
// ones element for element on every length that exercises the 16-, 8-,
// 4-wide and scalar stages, at every misalignment, on ordinary and on
// special values.
func TestPrimitivesMatchPortable(t *testing.T) {
	vec := vector(t)
	rng := rand.New(rand.NewSource(15))
	for n := 0; n <= 33; n++ {
		for off := 0; off <= 3; off++ {
			for _, special := range []bool{false, true} {
				what := fmt.Sprintf("n=%d off=%d special=%v", n, off, special)
				d, x := misaligned(n, off), misaligned(n, (off+1)%4)
				bs, ds, xs := misaligned(n, (off+2)%4), misaligned(n, (off+3)%4), misaligned(n, off)
				fill(rng, d, special)
				fill(rng, x, special)
				fill(rng, bs, special)
				fill(rng, ds, special)
				fill(rng, xs, special)
				gamma := 0.1 + rng.Float64()

				want, got := misaligned(n, off), misaligned(n, off)
				portable.mul(want, d, x)
				vec.mul(got, d, x)
				sameSlice(t, "mul "+what, got, want)

				fill(rng, want, special)
				copy(got, want)
				portable.mulAdd(want, d, x)
				vec.mulAdd(got, d, x)
				sameSlice(t, "mulAdd "+what, got, want)

				// relax, deferred form: dst is the accumulated A*x.
				ax := append([]float64(nil), want...)
				ax2 := misaligned(n, (off+1)%4)
				copy(ax2, ax)
				wantMax := portable.relax(ax, xs, bs, ax, ds, gamma, 0.25)
				gotMax := vec.relax(ax2, xs, bs, ax2, ds, gamma, 0.25)
				sameSlice(t, "relax "+what, ax2, ax)
				if math.Float64bits(gotMax) != math.Float64bits(wantMax) {
					t.Fatalf("relax %s: residual %v, portable %v", what, gotMax, wantMax)
				}

				// relax, in-place form: dst is the iterate.
				xs2 := misaligned(n, off)
				copy(xs2, xs)
				wantMax = portable.relax(xs, xs, bs, want, ds, gamma, 0)
				gotMax = vec.relax(xs2, xs2, bs, want, ds, gamma, 0)
				sameSlice(t, "relax in place "+what, xs2, xs)
				if math.Float64bits(gotMax) != math.Float64bits(wantMax) {
					t.Fatalf("relax in place %s: residual %v, portable %v", what, gotMax, wantMax)
				}
			}
		}
	}
}

// A NaN difference must not enter the residual on either path, in any
// lane or in the scalar tail, and the NaN iterate it came from must still
// be written.
func TestRelaxDropsNaNFromResidualAndWritesIt(t *testing.T) {
	for _, k := range []bandKernels{portable, startup} {
		for n := 1; n <= 21; n++ {
			for bad := 0; bad < n; bad++ {
				xs, bs, ax, ds := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
				for j := range xs {
					xs[j], bs[j], ax[j], ds[j] = 1, 3, 1, 4 // v = 1.5, |v-x| = 0.5
				}
				ax[bad] = math.NaN()
				got := k.relax(xs, xs, bs, ax, ds, 1, 0)
				want := 0.5
				if n == 1 {
					want = 0
				}
				if got != want {
					t.Fatalf("%s n=%d NaN at %d: residual %v, want %v", k.path, n, bad, got, want)
				}
				for j, v := range xs {
					if j == bad && v == v || j != bad && v != 1.5 {
						t.Fatalf("%s n=%d NaN at %d: x[%d] = %v", k.path, n, bad, j, v)
					}
				}
			}
		}
	}
}

// FuzzGradientStepPaths runs one GradientStep on the start-up path and on
// the portable one from the same state — any system shape, row range and
// step, special values sprinkled into the iterate and the right-hand side
// on request — and requires the same iterate, residual and flops.
func FuzzGradientStepPaths(f *testing.F) {
	f.Add(int64(1), uint16(400), uint8(12), uint16(0), uint16(400), 1.0, false)
	f.Add(int64(2), uint16(5000), uint8(30), uint16(17), uint16(4500), 0.7, false)
	f.Add(int64(3), uint16(2300), uint8(3), uint16(100), uint16(2148), 0.9, true)
	f.Add(int64(4), uint16(33), uint8(40), uint16(5), uint16(5), 1.3, true)
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, nd8 uint8, lo16, hi16 uint16, gamma float64, special bool) {
		n := 2 + int(n16)%6000
		nd := 1 + int(nd8)%40
		if nd >= n {
			nd = n - 1
		}
		lo, hi := int(lo16)%(n+1), int(hi16)%(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		a, b, _ := NewSystem(n, nd, 0.85, seed)
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		fill(rng, x, special)
		if special {
			b = append([]float64(nil), b...)
			for i := range b {
				if rng.Intn(16) == 0 {
					b[i] = specials[rng.Intn(len(specials))]
				}
			}
		}
		saved := kern
		defer func() { kern = saved }()
		run := func(k bandKernels) ([]float64, float64, float64) {
			kern = k
			xk := append([]float64(nil), x...)
			scratch := make([]float64, hi-lo)
			res, flops := a.GradientStep(lo, hi, gamma, xk, b, scratch)
			return xk, res, flops
		}
		wantX, wantRes, wantFlops := run(portable)
		gotX, gotRes, gotFlops := run(startup)
		sameSlice(t, fmt.Sprintf("n=%d nd=%d rows=[%d,%d) gamma=%v", n, nd, lo, hi, gamma), gotX, wantX)
		if math.Float64bits(gotRes) != math.Float64bits(wantRes) || gotFlops != wantFlops {
			t.Fatalf("residual %v flops %v on %s, %v and %v on portable", gotRes, gotFlops, startup.path, wantRes, wantFlops)
		}
	})
}
