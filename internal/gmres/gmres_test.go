package gmres

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aiac/internal/la"
	"aiac/internal/sparse"
)

// denseOp wraps a dense matrix as an Operator.
func denseOp(m [][]float64) Operator {
	return func(dst, x []float64) {
		for i := range m {
			var s float64
			for j, v := range m[i] {
				s += v * x[j]
			}
			dst[i] = s
		}
	}
}

func TestSolveIdentity(t *testing.T) {
	n := 10
	op := func(dst, x []float64) { copy(dst, x) }
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i)
	}
	x := make([]float64, n)
	res, err := SolveWith(new(Workspace), op, b, x, Params{}, 0)
	if err != nil || !res.Converged {
		t.Fatalf("identity solve failed: %v %+v", err, res)
	}
	if d := la.MaxNormDiff(x, b); d > 1e-10 {
		t.Fatalf("wrong solution, err %v", d)
	}
	if res.Iterations > 2 {
		t.Fatalf("identity should converge immediately, took %d", res.Iterations)
	}
}

func TestSolveDiagonallyDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 50
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		var sum float64
		for j := range m[i] {
			if i != j {
				m[i][j] = rng.Float64() - 0.5
				sum += math.Abs(m[i][j])
			}
		}
		m[i][i] = sum + 1
	}
	xt := make([]float64, n)
	for i := range xt {
		xt[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	denseOp(m)(b, xt)
	x := make([]float64, n)
	res, err := SolveWith(new(Workspace), denseOp(m), b, x, Params{Tol: 1e-12}, 0)
	if err != nil || !res.Converged {
		t.Fatalf("solve failed: %v %+v", err, res)
	}
	if d := la.MaxNormDiff(x, xt); d > 1e-8 {
		t.Fatalf("solution error %v", d)
	}
}

func TestSolveSparseSystem(t *testing.T) {
	a, b, xt, _ := sparse.NewSystemSum(300, 20, 0.9, 5)
	x := make([]float64, a.N)
	op := func(dst, v []float64) { a.RowRangeMulVec(0, a.N, dst, v) }
	res, err := SolveWith(new(Workspace), op, b, x, Params{Tol: 1e-10, Restart: 40}, 2*float64(a.StoredFloats()))
	if err != nil || !res.Converged {
		t.Fatalf("sparse solve failed: %v %+v", err, res)
	}
	if d := la.MaxNormDiff(x, xt); d > 1e-6 {
		t.Fatalf("solution error %v", d)
	}
	if res.Flops <= 0 {
		t.Fatal("flop count not accumulated")
	}
}

func TestRestartsStillConverge(t *testing.T) {
	a, b, xt, _ := sparse.NewSystemSum(200, 10, 0.9, 9)
	x := make([]float64, a.N)
	op := func(dst, v []float64) { a.RowRangeMulVec(0, a.N, dst, v) }
	// Tiny restart forces multiple outer cycles.
	res, err := SolveWith(new(Workspace), op, b, x, Params{Tol: 1e-10, Restart: 5, MaxIters: 5000}, 0)
	if err != nil || !res.Converged {
		t.Fatalf("restarted solve failed: %v %+v", err, res)
	}
	if d := la.MaxNormDiff(x, xt); d > 1e-6 {
		t.Fatalf("solution error %v", d)
	}
}

func TestZeroRHS(t *testing.T) {
	n := 8
	op := func(dst, x []float64) { copy(dst, x) }
	x := make([]float64, n)
	la.Fill(x, 3)
	res, err := SolveWith(new(Workspace), op, make([]float64, n), x, Params{}, 0)
	if err != nil || !res.Converged {
		t.Fatalf("zero rhs: %v", err)
	}
	if la.Norm2(x) != 0 {
		t.Fatal("zero rhs should give zero solution")
	}
}

func TestIterationCap(t *testing.T) {
	// An indefinite operator that GMRES(2) with 3 iterations cannot solve.
	a, b, _, _ := sparse.NewSystemSum(100, 10, 0.99, 3)
	op := func(dst, v []float64) { a.RowRangeMulVec(0, a.N, dst, v) }
	x := make([]float64, a.N)
	res, err := SolveWith(new(Workspace), op, b, x, Params{Tol: 1e-14, Restart: 2, MaxIters: 3}, 0)
	if err == nil {
		t.Fatalf("expected stagnation error, got %+v", res)
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", res.Iterations)
	}
}

func TestWarmStart(t *testing.T) {
	a, b, xt, _ := sparse.NewSystemSum(150, 10, 0.9, 21)
	op := func(dst, v []float64) { a.RowRangeMulVec(0, a.N, dst, v) }
	// Cold start.
	x1 := make([]float64, a.N)
	r1, err := SolveWith(new(Workspace), op, b, x1, Params{Tol: 1e-10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from near the solution must take fewer iterations.
	x2 := make([]float64, a.N)
	copy(x2, xt)
	for i := range x2 {
		x2[i] += 1e-6
	}
	r2, err := SolveWith(new(Workspace), op, b, x2, Params{Tol: 1e-10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Iterations >= r1.Iterations {
		t.Fatalf("warm start (%d iters) not faster than cold (%d)", r2.Iterations, r1.Iterations)
	}
}

// Property: for random diagonally-dominant systems, GMRES recovers the
// planted solution.
func TestSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
			var sum float64
			for j := range m[i] {
				if i != j {
					m[i][j] = rng.Float64() - 0.5
					sum += math.Abs(m[i][j])
				}
			}
			m[i][i] = sum + 0.5
		}
		xt := make([]float64, n)
		for i := range xt {
			xt[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		denseOp(m)(b, xt)
		x := make([]float64, n)
		res, err := SolveWith(new(Workspace), denseOp(m), b, x, Params{Tol: 1e-11, Restart: n}, 0)
		if err != nil || !res.Converged {
			return false
		}
		return la.MaxNormDiff(x, xt) < 1e-6*(1+la.MaxNormDiff(xt, make([]float64, n)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on mismatch")
		}
	}()
	SolveWith(new(Workspace), func(dst, x []float64) {}, make([]float64, 3), make([]float64, 4), Params{}, 0)
}
