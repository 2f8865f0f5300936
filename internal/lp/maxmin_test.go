package lp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"maxminlp/internal/mmlp"
)

func buildTiny(t *testing.T) *mmlp.Instance {
	t.Helper()
	b := mmlp.NewBuilder(3)
	b.AddUnitResource(0, 1)
	b.AddUnitResource(1, 2)
	b.AddUniformParty(1, 0, 1)
	b.AddUniformParty(1, 2)
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSolveMaxMinTiny(t *testing.T) {
	in := buildTiny(t)
	res, err := SolveMaxMin(in)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, res.Omega, 1, tol, "omega")
	if v := in.Violation(res.X); v > tol {
		t.Fatalf("optimal solution infeasible: %v", v)
	}
	// ω must equal the objective of the returned x.
	approx(t, in.Objective(res.X), res.Omega, tol, "objective consistency")
}

func TestSolveMaxMinNoParties(t *testing.T) {
	b := mmlp.NewBuilder(2)
	b.AddUnitResource(0)
	b.AddUnitResource(1)
	in := b.MustBuild()
	res, err := SolveMaxMin(in)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Omega, 1) {
		t.Fatalf("ω = %v, want +Inf for empty K", res.Omega)
	}
}

func TestSolveMaxMinRatAgreesWithFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 15; trial++ {
		b := mmlp.NewBuilder(0)
		n := 2 + rng.Intn(6)
		agents := make([]int, n)
		for i := range agents {
			agents[i] = b.AddAgent()
		}
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			b.AddResource(
				mmlp.Entry{Agent: agents[i], Coeff: float64(1+rng.Intn(3)) / 2},
				mmlp.Entry{Agent: agents[j], Coeff: float64(1+rng.Intn(3)) / 2},
			)
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			b.AddUniformParty(1, agents[rng.Intn(n)])
		}
		in := b.MustBuild()
		fres, err := SolveMaxMin(in)
		if err != nil {
			t.Fatal(err)
		}
		rres, err := SolveMaxMinRat(in)
		if err != nil {
			t.Fatal(err)
		}
		exact, _ := rres.Omega.Float64()
		approx(t, fres.Omega, exact, 1e-6, "float vs exact ω")
	}
}

// TestBisectionTriangulatesSimplex checks SolveMaxMin on random rings
// with non-uniform resource and party coefficients. The name dates from
// when the reference was a bisection solver; the reference is now the
// exact SolveMaxMinRat.
func TestBisectionTriangulatesSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 12; trial++ {
		b := mmlp.NewBuilder(0)
		n := 2 + rng.Intn(8)
		for i := 0; i < n; i++ {
			b.AddAgent()
		}
		for i := 0; i < n; i++ {
			b.AddResource(
				mmlp.Entry{Agent: i, Coeff: 0.5 + rng.Float64()},
				mmlp.Entry{Agent: (i + 1) % n, Coeff: 0.5 + rng.Float64()},
			)
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			b.AddParty(mmlp.Entry{Agent: rng.Intn(n), Coeff: 0.5 + rng.Float64()})
		}
		in := b.MustBuild()
		simplex, err := SolveMaxMin(in)
		if err != nil {
			t.Fatal(err)
		}
		rres, err := SolveMaxMinRat(in)
		if err != nil {
			t.Fatal(err)
		}
		exact, _ := rres.Omega.Float64()
		if math.Abs(simplex.Omega-exact) > 1e-6*(1+exact) {
			t.Fatalf("trial %d: simplex ω = %v, exact ω = %v", trial, simplex.Omega, exact)
		}
		if v := in.Violation(simplex.X); v > 1e-9 {
			t.Fatalf("trial %d: simplex point infeasible: %v", trial, v)
		}
	}
}

func TestSolveMaxMinRatExactOnTiny(t *testing.T) {
	in := buildTiny(t)
	res, err := SolveMaxMinRat(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Omega.Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatalf("exact ω = %v, want exactly 1", res.Omega)
	}
}

func TestSolvePacking(t *testing.T) {
	// maximise x0 + 2 x1 s.t. x0 + x1 ≤ 1, x1 ≤ 0.5 (scaled row).
	b := mmlp.NewBuilder(2)
	b.AddUnitResource(0, 1)
	b.AddResource(mmlp.Entry{Agent: 1, Coeff: 2})
	in := b.MustBuild()
	sol, err := SolvePacking(in, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	approx(t, sol.Value, 1.5, tol, "packing value") // x0 = 0.5, x1 = 0.5
	if _, err := SolvePacking(in, []float64{1}); err == nil {
		t.Fatal("wrong objective length must fail")
	}
}

func TestMaxMinOmegaNeverNegativeQuick(t *testing.T) {
	// Property: for random valid instances, the solver returns a
	// feasible x with ω = Objective(x) ≥ 0 and no constraint violated.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		b := mmlp.NewBuilder(n)
		for v := 0; v < n; v++ {
			b.AddResource(mmlp.Entry{Agent: v, Coeff: 0.25 + r.Float64()})
		}
		for e := 0; e < r.Intn(6); e++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				b.AddResource(mmlp.Entry{Agent: u, Coeff: 0.5}, mmlp.Entry{Agent: v, Coeff: 0.5})
			}
		}
		for k := 0; k < 1+r.Intn(4); k++ {
			b.AddParty(mmlp.Entry{Agent: r.Intn(n), Coeff: 0.25 + r.Float64()})
		}
		in := b.MustBuild()
		res, err := SolveMaxMin(in)
		if err != nil {
			return false
		}
		if res.Omega < -tol {
			return false
		}
		if in.Violation(res.X) > tol {
			return false
		}
		// Optimality sanity: ω equals the recomputed objective.
		return math.Abs(in.Objective(res.X)-res.Omega) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRatSimplexInfeasibleAndUnbounded(t *testing.T) {
	one := big.NewRat(1, 1)
	two := big.NewRat(2, 1)
	inf := &RatProblem{
		Obj: []*big.Rat{one},
		Constraints: []RatConstraint{
			{Coeffs: []*big.Rat{one}, Rel: LE, RHS: one},
			{Coeffs: []*big.Rat{one}, Rel: GE, RHS: two},
		},
	}
	sol, err := SolveRat(inf)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}

	unb := &RatProblem{
		Obj: []*big.Rat{one, nil},
		Constraints: []RatConstraint{
			{Coeffs: []*big.Rat{nil, one}, Rel: LE, RHS: one},
		},
	}
	sol, err = SolveRat(unb)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", sol.Status)
	}
}

func TestRatSimplexMinimizeAndEquality(t *testing.T) {
	one := big.NewRat(1, 1)
	five := big.NewRat(5, 1)
	three := big.NewRat(3, 1)
	p := &RatProblem{
		Minimize: true,
		Obj:      []*big.Rat{big.NewRat(2, 1), three},
		Constraints: []RatConstraint{
			{Coeffs: []*big.Rat{one, one}, Rel: EQ, RHS: five},
		},
	}
	sol, err := SolveRat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	// min 2x + 3y with x + y = 5 → x = 5, y = 0, value 10.
	if sol.Value.Cmp(big.NewRat(10, 1)) != 0 {
		t.Fatalf("value = %v, want 10", sol.Value)
	}
}

func TestRelString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Fatal("Rel strings wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Fatal("Status strings wrong")
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	p := &Problem{
		Obj: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Rel: LE, RHS: 1}, // wrong arity
		},
	}
	if _, err := Solve(p); err == nil {
		t.Fatal("wrong coefficient arity must fail")
	}
	p = &Problem{
		Obj: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Rel: LE, RHS: math.Inf(1)},
		},
	}
	if _, err := Solve(p); err == nil {
		t.Fatal("non-finite rhs must fail")
	}
}
