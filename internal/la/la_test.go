package la

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("dot = %v", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("axpy = %v", y)
	}
}

func TestScaleAndFill(t *testing.T) {
	x := []float64{1, 2}
	Scale(3, x)
	if x[0] != 3 || x[1] != 6 {
		t.Fatalf("scale = %v", x)
	}
	Fill(x, 9)
	if x[0] != 9 || x[1] != 9 {
		t.Fatalf("fill = %v", x)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if !almost(Norm2(x), 5, 1e-15) {
		t.Fatalf("norm2 = %v", Norm2(x))
	}
	if MaxNormDiff([]float64{1, 5}, []float64{2, 3}) != 2 {
		t.Fatal("maxnormdiff wrong")
	}
}

// Property: Cauchy–Schwarz |<a,b>| <= ||a|| ||b||.
func TestCauchySchwarz(t *testing.T) {
	f := func(a, b [8]float64) bool {
		av, bv := a[:], b[:]
		for i := range av {
			if math.IsNaN(av[i]) || math.IsInf(av[i], 0) || math.Abs(av[i]) > 1e100 {
				av[i] = 1
			}
			if math.IsNaN(bv[i]) || math.IsInf(bv[i], 0) || math.Abs(bv[i]) > 1e100 {
				bv[i] = 1
			}
		}
		lhs := math.Abs(Dot(av, bv))
		rhs := Norm2(av) * Norm2(bv)
		return lhs <= rhs*(1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Givens produces an orthonormal rotation that zeroes b.
func TestGivensProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		if math.Abs(a) > 1e150 || math.Abs(b) > 1e150 {
			return true
		}
		c, s := Givens(a, b)
		if !almost(c*c+s*s, 1, 1e-12) {
			return false
		}
		zero := -s*a + c*b
		scale := math.Max(math.Abs(a), math.Abs(b))
		if scale == 0 {
			return zero == 0
		}
		return math.Abs(zero)/scale < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// A NaN difference makes the norm NaN and keeps it so: first, last,
// followed by larger finite differences, or everywhere. Finite inputs keep
// the plain maximum.
func TestMaxNormDiffNaN(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		a, b []float64
	}{
		{"last", []float64{1, nan}, []float64{1.5, 2}},
		{"then finite", []float64{nan, 1, 5}, []float64{0, 3, -4}},
		{"in the truth", []float64{0, 1, 5}, []float64{nan, 3, -4}},
		{"all", []float64{nan, nan, nan}, []float64{1, 2, 3}},
	} {
		if got := MaxNormDiff(tc.a, tc.b); !math.IsNaN(got) {
			t.Errorf("%s: MaxNormDiff = %g, want NaN", tc.name, got)
		}
	}
	if got := MaxNormDiff([]float64{1, -7, 2}, []float64{1.5, 2, 2}); got != 9 {
		t.Errorf("finite MaxNormDiff = %g, want 9", got)
	}
	if got := MaxNormDiff(nil, nil); got != 0 {
		t.Errorf("empty MaxNormDiff = %g, want 0", got)
	}
}

func TestMaxNormDiffMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	MaxNormDiff([]float64{1}, []float64{1, 2})
}
