package lp

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

const tol = 1e-7

func approx(t *testing.T, got, want, eps float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > eps {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, eps)
	}
}

func TestSimplexBasicMax(t *testing.T) {
	// maximise 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → x=2, y=6, z=36.
	p := &Problem{
		Obj: []float64{3, 5},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Rel: LE, RHS: 4},
			{Coeffs: []float64{0, 2}, Rel: LE, RHS: 12},
			{Coeffs: []float64{3, 2}, Rel: LE, RHS: 18},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	approx(t, sol.Value, 36, tol, "objective")
	approx(t, sol.X[0], 2, tol, "x")
	approx(t, sol.X[1], 6, tol, "y")
}

func TestSimplexMinimize(t *testing.T) {
	// minimise 2x + 3y s.t. x + y ≥ 10, x ≥ 2 → x=8? No: min at x=10,y=0
	// gives 20; x=2,y=8 gives 28. So optimum x=10, y=0, z=20.
	p := &Problem{
		Minimize: true,
		Obj:      []float64{2, 3},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: GE, RHS: 10},
			{Coeffs: []float64{1, 0}, Rel: GE, RHS: 2},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	approx(t, sol.Value, 20, tol, "objective")
	approx(t, sol.X[0], 10, tol, "x")
	approx(t, sol.X[1], 0, tol, "y")
}

func TestSimplexEquality(t *testing.T) {
	// maximise x + 2y s.t. x + y = 5, y ≤ 3 → x=2, y=3, z=8.
	p := &Problem{
		Obj: []float64{1, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: EQ, RHS: 5},
			{Coeffs: []float64{0, 1}, Rel: LE, RHS: 3},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	approx(t, sol.Value, 8, tol, "objective")
}

func TestSimplexInfeasible(t *testing.T) {
	p := &Problem{
		Obj: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Rel: LE, RHS: 1},
			{Coeffs: []float64{1}, Rel: GE, RHS: 2},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	p := &Problem{
		Obj: []float64{1, 0},
		Constraints: []Constraint{
			{Coeffs: []float64{0, 1}, Rel: LE, RHS: 1},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// x ≤ −1 is infeasible for x ≥ 0; −x ≤ −1 means x ≥ 1.
	p := &Problem{
		Minimize: true,
		Obj:      []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{-1}, Rel: LE, RHS: -1},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	approx(t, sol.X[0], 1, tol, "x")
}

func TestSimplexDegenerate(t *testing.T) {
	// Klee-Minty style degenerate problem; Bland must terminate.
	p := &Problem{
		Obj: []float64{10, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Rel: LE, RHS: 1},
			{Coeffs: []float64{20, 1}, Rel: LE, RHS: 100},
			{Coeffs: []float64{1, 1}, Rel: LE, RHS: 0}, // forces x=y=0? no: x,y≥0 and x+y≤0 → x=y=0
		},
	}
	for _, rule := range []PivotRule{DantzigThenBland, BlandOnly} {
		sol, err := SolveWithRule(p, rule)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("rule %v: status = %v", rule, sol.Status)
		}
		approx(t, sol.Value, 0, tol, "objective")
	}
}

func TestSimplexDualsPacking(t *testing.T) {
	// Packing LP duals: maximise c·x, Ax ≤ b, duals y ≥ 0, strong duality.
	p := &Problem{
		Obj: []float64{3, 5},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Rel: LE, RHS: 4},
			{Coeffs: []float64{0, 2}, Rel: LE, RHS: 12},
			{Coeffs: []float64{3, 2}, Rel: LE, RHS: 18},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	duals := sol.Duals()
	dualVal := 0.0
	for i, c := range p.Constraints {
		if duals[i] < -tol {
			t.Fatalf("dual %d = %v < 0", i, duals[i])
		}
		dualVal += duals[i] * c.RHS
	}
	approx(t, dualVal, sol.Value, tol, "strong duality")
}

// TestRatSimplexMatchesFloat checks the float simplex against the exact
// rational one on random bounded maximisations over ≤ rows.
func TestRatSimplexMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		checkAgainstRat(t, randomLEProblem(rng), fmt.Sprintf("trial %d", trial))
	}
}

// TestRevisedMatchesDenseQuick checks the dense simplex on random min/max
// problems mixing ≤, ≥ and = rows under per-variable bounds, whose
// statuses include Infeasible. The name dates from when the reference was
// the revised simplex; the reference is now the exact SolveRat.
func TestRevisedMatchesDenseQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 120; trial++ {
		checkAgainstRat(t, randomMixedProblem(rng), fmt.Sprintf("mixed trial %d", trial))
	}
}

// checkAgainstRat solves p with the float and the exact simplex. The
// statuses must match, and optimal values must agree to 1e-6.
func checkAgainstRat(t *testing.T, p *Problem, what string) {
	t.Helper()
	fsol, err := Solve(p)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	rp := &RatProblem{Obj: ratSlice(p.Obj), Minimize: p.Minimize}
	for _, c := range p.Constraints {
		rp.Constraints = append(rp.Constraints, RatConstraint{
			Coeffs: ratSlice(c.Coeffs), Rel: c.Rel, RHS: floatRat(c.RHS),
		})
	}
	rsol, err := SolveRat(rp)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if fsol.Status != rsol.Status {
		t.Fatalf("%s: float %v vs exact %v", what, fsol.Status, rsol.Status)
	}
	if fsol.Status == Optimal {
		exact, _ := rsol.Value.Float64()
		approx(t, fsol.Value, exact, 1e-6, what+": objective agreement")
	}
}

// randomRow returns n small nonnegative integer coefficients, at least
// one of them nonzero.
func randomRow(rng *rand.Rand, n int) []float64 {
	row := make([]float64, n)
	nonzero := false
	for j := range row {
		row[j] = float64(rng.Intn(4)) // may be zero
		if row[j] != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		row[rng.Intn(n)] = 1
	}
	return row
}

// randomLEProblem is a bounded maximisation over ≤ rows: every variable
// appears in some row.
func randomLEProblem(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(5)
	m := 1 + rng.Intn(6)
	p := &Problem{Obj: make([]float64, n)}
	for j := range p.Obj {
		p.Obj[j] = float64(rng.Intn(9) + 1)
	}
	for i := 0; i < m; i++ {
		p.Constraints = append(p.Constraints, Constraint{
			Coeffs: randomRow(rng, n), Rel: LE, RHS: float64(rng.Intn(10) + 1),
		})
	}
	for j := 0; j < n; j++ {
		covered := false
		for _, c := range p.Constraints {
			if c.Coeffs[j] > 0 {
				covered = true
			}
		}
		if !covered {
			row := make([]float64, n)
			row[j] = 1
			p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Rel: LE, RHS: 5})
		}
	}
	return p
}

// randomMixedProblem minimises or maximises over a random mix of ≤, ≥
// and = rows, with x_j ≤ 8 on every variable so that only infeasibility,
// not unboundedness, can end a run early.
func randomMixedProblem(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(6)
	m := 1 + rng.Intn(7)
	p := &Problem{Obj: make([]float64, n), Minimize: rng.Intn(2) == 0}
	for j := range p.Obj {
		p.Obj[j] = float64(rng.Intn(9) + 1)
	}
	for i := 0; i < m; i++ {
		rel := LE
		switch rng.Intn(4) {
		case 0:
			rel = GE
		case 1:
			rel = EQ
		}
		p.Constraints = append(p.Constraints, Constraint{
			Coeffs: randomRow(rng, n), Rel: rel, RHS: float64(rng.Intn(10) + 1),
		})
	}
	for j := 0; j < n; j++ {
		row := make([]float64, n)
		row[j] = 1
		p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Rel: LE, RHS: 8})
	}
	return p
}

func ratSlice(xs []float64) []*big.Rat {
	out := make([]*big.Rat, len(xs))
	for i, x := range xs {
		out[i] = floatRat(x)
	}
	return out
}
