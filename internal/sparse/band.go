package sparse

import "math"

// bandKernels is one implementation of the three primitives the DIA
// kernels are made of. Each reads len(first argument) elements of every
// slice, so callers pass operands already cut to one shared length.
type bandKernels struct {
	path string
	// mul: out[j] = d[j] * x[j].
	mul func(out, d, x []float64)
	// mulAdd: acc[j] += d[j] * x[j], the product rounded before the add.
	mulAdd func(acc, d, x []float64)
	// relax: v = xs[j] + gamma*(bs[j]-ax[j])/ds[j]; dst[j] = v; the return
	// value is max(maxd, max_j |v-xs[j]|) with NaN differences dropped.
	// dst may be xs (update in place) or ax (deferred write).
	relax func(dst, xs, bs, ax, ds []float64, gamma, maxd float64) float64
}

// portable is the pure-Go path: the only one off amd64 and on amd64
// without AVX2, and the reference the vector path is held bit-identical to.
// (That holds where the compiler keeps mulAddGo's multiply and add apart,
// as it does at the default GOAMD64=v1; the committed golden results were
// recorded there.)
var portable = bandKernels{path: "portable", mul: mulGo, mulAdd: mulAddGo, relax: relaxGo}

// kern is the path every DIA kernel call takes, chosen once at start-up:
// band_amd64.go's init swaps in the AVX2 primitives when the CPU and the
// OS support them. Nothing else selects it — no flag, environment variable
// or build tag — and only tests override it (PinPortable).
var kern = portable

// KernelPath names the primitives DIA's kernels run on in this process:
// "avx2" or "portable".
func KernelPath() string { return kern.path }

// PinPortable makes DIA's kernels take the pure-Go primitives until t's
// cleanups run: the hook by which tests, here and in the packages above,
// run both paths. t is what a *testing.T offers, so no program can reach
// it. Not for use while other goroutines run kernels.
func PinPortable(t interface{ Cleanup(func()) }) {
	saved := kern
	kern = portable
	t.Cleanup(func() { kern = saved })
}

//lint:hotpath
func mulGo(out, d, x []float64) {
	d, x = d[:len(out)], x[:len(out)]
	for j := range out {
		out[j] = d[j] * x[j]
	}
}

// mulAddGo is KERNELS.md's unroll4 rung: operands re-sliced to one length
// so the compiler drops the bounds checks, the loop unrolled 4-wide.
//
//lint:hotpath
func mulAddGo(acc, d, x []float64) {
	d, x = d[:len(acc)], x[:len(acc)]
	j := 0
	for ; j+3 < len(acc); j += 4 {
		acc[j] += d[j] * x[j]
		acc[j+1] += d[j+1] * x[j+1]
		acc[j+2] += d[j+2] * x[j+2]
		acc[j+3] += d[j+3] * x[j+3]
	}
	for ; j < len(acc); j++ {
		acc[j] += d[j] * x[j]
	}
}

// relaxGo keeps the update expression of Equ. 4 verbatim — a division by
// the diagonal, no reciprocal — because the suite's virtual-time results
// are pinned to its rounding.
//
//lint:hotpath
func relaxGo(dst, xs, bs, ax, ds []float64, gamma, maxd float64) float64 {
	n := len(dst)
	xs, bs, ax, ds = xs[:n], bs[:n], ax[:n], ds[:n]
	for j := range dst {
		v := xs[j] + gamma*(bs[j]-ax[j])/ds[j]
		if d := math.Abs(v - xs[j]); d > maxd {
			maxd = d
		}
		dst[j] = v
	}
	return maxd
}
