package lp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// --- Satellite: all-zero-coefficient rows -------------------------------
//
// A row with no nonzero coefficient is decided by the sign of its rhs
// alone. The latent bug: a GE zero row with 0 < rhs ≤ epsPhase1 passed
// phase 1 inside the tolerance and the artificial was pivoted out,
// yielding a bogus Optimal. The staging-time verdict is exact now, and
// every solver front end must agree.

func zeroRowProblem(rel Rel, rhs float64) *Problem {
	return &Problem{
		Obj: []float64{1, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: LE, RHS: 10},
			{Coeffs: []float64{0, 0}, Rel: rel, RHS: rhs},
		},
	}
}

func zeroRowCases() []struct {
	name       string
	rel        Rel
	rhs        float64
	infeasible bool
} {
	return []struct {
		name       string
		rel        Rel
		rhs        float64
		infeasible bool
	}{
		{"ge positive", GE, 1, true},
		{"ge epsilon-masked", GE, 1e-8, true}, // below epsPhase1: the phase-1 tolerance used to swallow it
		{"ge tiny", GE, 5e-324, true},
		{"le negative", LE, -1, true},
		{"le epsilon-masked", LE, -1e-8, true},
		{"eq nonzero", EQ, 0.5, true},
		{"eq tiny", EQ, -1e-12, true},
		{"ge zero", GE, 0, false},
		{"ge negative", GE, -3, false},
		{"le zero", LE, 0, false},
		{"le positive", LE, 3, false},
		{"eq zero", EQ, 0, false},
	}
}

func TestZeroRowVerdicts(t *testing.T) {
	solvers := map[string]func(*Problem) (Solution, error){
		"solve":     Solve,
		"bland":     func(p *Problem) (Solution, error) { return SolveWithRule(p, BlandOnly) },
		"workspace": func(p *Problem) (Solution, error) { return NewWorkspace().Solve(p) },
	}
	for _, tc := range zeroRowCases() {
		p := zeroRowProblem(tc.rel, tc.rhs)
		want := Optimal
		if tc.infeasible {
			want = Infeasible
		}
		for sname, solve := range solvers {
			sol, err := solve(p)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, sname, err)
			}
			if sol.Status != want {
				t.Errorf("%s/%s: status %v, want %v", tc.name, sname, sol.Status, want)
			}
			if !tc.infeasible && sol.Status == Optimal && math.Abs(sol.Value-20) > tol {
				t.Errorf("%s/%s: value %v, want 20 (the zero row must not perturb the optimum)", tc.name, sname, sol.Value)
			}
		}
	}
}

// TestZeroRowRational: the exact solver reaches the same verdicts; it is
// the ground truth the float fix is measured against.
func TestZeroRowRational(t *testing.T) {
	for _, tc := range zeroRowCases() {
		rp := &RatProblem{
			Obj: []*big.Rat{big.NewRat(1, 1), big.NewRat(2, 1)},
			Constraints: []RatConstraint{
				{Coeffs: []*big.Rat{big.NewRat(1, 1), big.NewRat(1, 1)}, Rel: LE, RHS: big.NewRat(10, 1)},
				{Coeffs: []*big.Rat{new(big.Rat), new(big.Rat)}, Rel: tc.rel, RHS: new(big.Rat).SetFloat64(tc.rhs)},
			},
		}
		sol, err := SolveRat(rp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := Optimal
		if tc.infeasible {
			want = Infeasible
		}
		if sol.Status != want {
			t.Errorf("%s: rational status %v, want %v", tc.name, sol.Status, want)
		}
	}
}

// TestZeroRowPresolveAgrees: the presolve's zero-row rule must reach the
// same verdict as the (fixed) unpresolved solvers on every case.
func TestZeroRowPresolveAgrees(t *testing.T) {
	for _, tc := range zeroRowCases() {
		p := zeroRowProblem(tc.rel, tc.rhs)
		direct, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		via, err := SolvePresolved(p)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Status != via.Status {
			t.Errorf("%s: presolved %v vs direct %v", tc.name, via.Status, direct.Status)
		}
	}
}

// --- Presolve reductions, one by one ------------------------------------

func TestPresolveZeroRowDrop(t *testing.T) {
	p := zeroRowProblem(LE, 7)
	ps, err := PresolveProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	if ps.RowsDropped() != 1 || len(ps.Reduced.Constraints) != 1 {
		t.Fatalf("dropped %d rows, reduced has %d", ps.RowsDropped(), len(ps.Reduced.Constraints))
	}
	sol, err := Solve(ps.Reduced)
	if err != nil {
		t.Fatal(err)
	}
	out := ps.Postsolve(sol)
	if out.Status != Optimal || math.Abs(out.Value-20) > tol {
		t.Fatalf("postsolved: %v / %v", out.Status, out.Value)
	}
	y := out.Duals()
	if len(y) != 2 || y[1] != 0 {
		t.Fatalf("dropped row dual: %v", y)
	}
}

func TestPresolveEQSingletonSubstitution(t *testing.T) {
	// x0 = 2 is substituted; the coupled row's rhs shifts by 2.
	p := &Problem{
		Obj: []float64{1, 3},
		Constraints: []Constraint{
			{Coeffs: []float64{2, 0}, Rel: EQ, RHS: 4},
			{Coeffs: []float64{1, 1}, Rel: LE, RHS: 5},
		},
	}
	ps, err := PresolveProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	if ps.ColsFixed() != 1 || len(ps.Reduced.Obj) != 1 {
		t.Fatalf("cols fixed %d, reduced vars %d", ps.ColsFixed(), len(ps.Reduced.Obj))
	}
	if got := ps.Reduced.Constraints[0].RHS; got != 3 {
		t.Fatalf("substituted rhs = %v, want 3", got)
	}
	sol, err := Solve(ps.Reduced)
	if err != nil {
		t.Fatal(err)
	}
	out := ps.Postsolve(sol)
	// Optimum: x0 = 2, x1 = 3, value 2 + 9 = 11.
	if out.Status != Optimal || math.Abs(out.Value-11) > tol || math.Abs(out.X[0]-2) > tol || math.Abs(out.X[1]-3) > tol {
		t.Fatalf("postsolved: %+v", out)
	}
	checkDualsMax(t, p, out)
}

// TestPresolveChainedEQSubstitution: eliminating one EQ singleton can
// turn another EQ row into a singleton whose fix is computed from the
// *working* rhs. Regression: the postsolve certificate compared
// a·val against the original row RHS, so any chained elimination
// (x0 = 2, then x0 + x1 = 5 reducing to x1 = 3 ≠ 5) panicked with a
// bogus residual on a perfectly valid LP.
func TestPresolveChainedEQSubstitution(t *testing.T) {
	p := &Problem{
		Obj: []float64{1, 1, 1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0, 0, 0}, Rel: EQ, RHS: 2},
			{Coeffs: []float64{1, 1, 0, 0}, Rel: EQ, RHS: 5},
			{Coeffs: []float64{0, 1, 1, 0}, Rel: EQ, RHS: 4},
			{Coeffs: []float64{0, 0, 0, 1}, Rel: LE, RHS: 1},
		},
	}
	out, err := SolvePresolved(p)
	if err != nil {
		t.Fatal(err)
	}
	// Chain: x0 = 2, x1 = 5 − 2 = 3, x2 = 4 − 3 = 1; free x3 rises to 1.
	want := []float64{2, 3, 1, 1}
	if out.Status != Optimal || math.Abs(out.Value-7) > tol {
		t.Fatalf("postsolved: %v / %v", out.Status, out.Value)
	}
	for j, w := range want {
		if math.Abs(out.X[j]-w) > tol {
			t.Fatalf("x = %v, want %v", out.X, want)
		}
	}
	direct, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Status != Optimal || math.Abs(direct.Value-out.Value) > tol {
		t.Fatalf("direct %v / %v disagrees with presolved %v", direct.Status, direct.Value, out.Value)
	}
	checkDualsMax(t, p, out)
}

func TestPresolveEQSingletonNegativeFixInfeasible(t *testing.T) {
	p := &Problem{
		Obj:         []float64{1},
		Constraints: []Constraint{{Coeffs: []float64{3}, Rel: EQ, RHS: -6}},
	}
	ps, err := PresolveProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, ok := ps.Decided()
	if !ok || sol.Status != Infeasible {
		t.Fatalf("decided=%v status=%v", ok, sol.Status)
	}
}

func TestPresolveForcedZero(t *testing.T) {
	// 5·x0 ≤ 0 forces x0 = 0 exactly; −2·x1 ≥ 0 forces x1 = 0 exactly.
	p := &Problem{
		Obj: []float64{4, 4, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{5, 0, 0}, Rel: LE, RHS: 0},
			{Coeffs: []float64{0, -2, 0}, Rel: GE, RHS: 0},
			{Coeffs: []float64{1, 1, 1}, Rel: LE, RHS: 9},
		},
	}
	ps, err := PresolveProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	if ps.ColsFixed() != 2 {
		t.Fatalf("cols fixed %d, want 2", ps.ColsFixed())
	}
	sol, err := Solve(ps.Reduced)
	if err != nil {
		t.Fatal(err)
	}
	out := ps.Postsolve(sol)
	if out.Status != Optimal || out.X[0] != 0 || out.X[1] != 0 || math.Abs(out.Value-9) > tol {
		t.Fatalf("postsolved: %+v", out)
	}
	checkDualsMax(t, p, out)
}

func TestPresolveVacuousSingletonDrop(t *testing.T) {
	// −x0 ≤ 4 and x0 ≥ −1 hold for every x0 ≥ 0: dropped, duals 0.
	p := &Problem{
		Obj: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{-1}, Rel: LE, RHS: 4},
			{Coeffs: []float64{1}, Rel: GE, RHS: -1},
			{Coeffs: []float64{1}, Rel: LE, RHS: 2},
		},
	}
	ps, err := PresolveProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	if ps.RowsDropped() != 2 {
		t.Fatalf("dropped %d, want 2", ps.RowsDropped())
	}
	sol, err := Solve(ps.Reduced)
	if err != nil {
		t.Fatal(err)
	}
	out := ps.Postsolve(sol)
	y := out.Duals()
	if y[0] != 0 || y[1] != 0 {
		t.Fatalf("vacuous row duals: %v", y)
	}
	checkDualsMax(t, p, out)
}

func TestPresolveEmptyColumn(t *testing.T) {
	// x1 appears in no row. With c1 ≤ 0 it is fixed at 0; with c1 > 0
	// the (feasible) problem is unbounded.
	base := func(c1 float64) *Problem {
		return &Problem{
			Obj:         []float64{1, c1},
			Constraints: []Constraint{{Coeffs: []float64{1, 0}, Rel: LE, RHS: 3}},
		}
	}
	sol, err := SolvePresolved(base(-2))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.X[1] != 0 || math.Abs(sol.Value-3) > tol {
		t.Fatalf("c1<0: %+v", sol)
	}
	sol, err = SolvePresolved(base(2))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("c1>0: %v, want Unbounded", sol.Status)
	}
	// Unbounded column + infeasible rest: Infeasible wins.
	p := base(2)
	p.Constraints = append(p.Constraints, Constraint{Coeffs: []float64{1, 0}, Rel: LE, RHS: -1})
	sol, err = SolvePresolved(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("unbounded column over infeasible rest: %v", sol.Status)
	}
	direct, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Status != sol.Status {
		t.Fatalf("verdict drift: direct %v vs presolved %v", direct.Status, sol.Status)
	}
}

func TestPresolveDuplicateRows(t *testing.T) {
	// LE pair keeps the smaller rhs, GE pair the larger; the slack twin
	// gets dual 0.
	p := &Problem{
		Obj: []float64{3, 5},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 2}, Rel: LE, RHS: 10},
			{Coeffs: []float64{1, 2}, Rel: LE, RHS: 7},
			{Coeffs: []float64{1, 0}, Rel: GE, RHS: 1},
			{Coeffs: []float64{1, 0}, Rel: GE, RHS: 2},
		},
	}
	ps, err := PresolveProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	if ps.RowsDropped() != 2 {
		t.Fatalf("dropped %d, want 2", ps.RowsDropped())
	}
	kept := ps.Reduced.Constraints
	if kept[0].RHS != 7 || kept[1].RHS != 2 {
		t.Fatalf("kept wrong twins: %+v", kept)
	}
	sol, err := Solve(ps.Reduced)
	if err != nil {
		t.Fatal(err)
	}
	out := ps.Postsolve(sol)
	direct, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, out.Value, direct.Value, tol, "duplicate-row value")
	checkDualsMax(t, p, out)
}

// TestPresolveSignedZeroRowsNotMerged: the duplicate-row guard is
// bitwise, so rows whose coefficient vectors differ only in a signed
// zero are kept distinct (the simplex could in principle tell them
// apart; never merging is always verdict-safe).
func TestPresolveSignedZeroRowsNotMerged(t *testing.T) {
	negZero := math.Copysign(0, -1)
	p := &Problem{
		Obj: []float64{3, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Rel: LE, RHS: 5},
			{Coeffs: []float64{1, negZero}, Rel: LE, RHS: 7},
			{Coeffs: []float64{0, 1}, Rel: LE, RHS: 1}, // keeps x1 active
		},
	}
	ps, err := PresolveProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	if ps.RowsDropped() != 0 {
		t.Fatalf("dropped %d rows; −0.0 and +0.0 coefficients must not merge", ps.RowsDropped())
	}
	out, err := SolvePresolved(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != Optimal || math.Abs(out.Value-16) > tol {
		t.Fatalf("postsolved: %v / %v", out.Status, out.Value)
	}
}

func TestPresolveDuplicateEQInfeasible(t *testing.T) {
	p := &Problem{
		Obj: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: EQ, RHS: 3},
			{Coeffs: []float64{1, 1}, Rel: EQ, RHS: 4},
		},
	}
	ps, err := PresolveProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol, ok := ps.Decided(); !ok || sol.Status != Infeasible {
		t.Fatalf("decided=%v status=%v", ok, sol.Status)
	}
}

func TestPresolveFullyDecidedOptimal(t *testing.T) {
	// Every row and column eliminated: x0 fixed by an EQ singleton, x1
	// forced to zero. Decided returns the complete solution, duals and
	// all, with no solve.
	p := &Problem{
		Obj: []float64{2, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{4, 0}, Rel: EQ, RHS: 8},
			{Coeffs: []float64{0, 3}, Rel: LE, RHS: 0},
		},
	}
	ps, err := PresolveProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, ok := ps.Decided()
	if !ok || sol.Status != Optimal {
		t.Fatalf("decided=%v status=%v", ok, sol.Status)
	}
	if sol.X[0] != 2 || sol.X[1] != 0 || math.Abs(sol.Value-4) > tol {
		t.Fatalf("decided solution: %+v", sol)
	}
	checkDualsMax(t, p, sol)
}

func TestPresolveRejectsMalformed(t *testing.T) {
	if _, err := PresolveProblem(&Problem{
		Obj:         []float64{1},
		Constraints: []Constraint{{Coeffs: []float64{1, 2}, Rel: LE, RHS: 1}},
	}); err == nil {
		t.Error("ragged constraint accepted")
	}
	if _, err := PresolveProblem(&Problem{
		Obj:         []float64{1},
		Constraints: []Constraint{{Coeffs: []float64{1}, Rel: LE, RHS: math.NaN()}},
	}); err == nil {
		t.Error("NaN rhs accepted")
	}
}

// --- Differential: SolvePresolved vs Solve ------------------------------

// TestSolvePresolvedMatchesSolve drives random problems through both
// paths. Verdicts must agree always; values bit-identically when no
// reduction fired, and to strong-duality precision otherwise.
func TestSolvePresolvedMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	reduced, identical := 0, 0
	for trial := 0; trial < 300; trial++ {
		p := randomMPSProblem(rng)
		ps, err := PresolveProblem(p)
		if err != nil {
			t.Fatal(err)
		}
		direct, err1 := Solve(p)
		via, err2 := SolvePresolved(p)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: errors differ: %v vs %v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if direct.Status != via.Status {
			t.Fatalf("trial %d: status %v vs %v (dropped %d, fixed %d)",
				trial, direct.Status, via.Status, ps.RowsDropped(), ps.ColsFixed())
		}
		if direct.Status != Optimal {
			continue
		}
		if ps.RowsDropped() == 0 && ps.ColsFixed() == 0 {
			if math.Float64bits(direct.Value) != math.Float64bits(via.Value) {
				t.Fatalf("trial %d: no reduction fired but value bits differ: %v vs %v", trial, direct.Value, via.Value)
			}
			for j := range direct.X {
				if math.Float64bits(direct.X[j]) != math.Float64bits(via.X[j]) {
					t.Fatalf("trial %d: no reduction fired but x[%d] bits differ", trial, j)
				}
			}
			identical++
		} else {
			reduced++
			scale := math.Max(1, math.Abs(direct.Value))
			if math.Abs(direct.Value-via.Value) > 1e-8*scale {
				t.Fatalf("trial %d: value %v vs %v after %d drops / %d fixes",
					trial, direct.Value, via.Value, ps.RowsDropped(), ps.ColsFixed())
			}
			checkDualsEither(t, p, via)
		}
	}
	if reduced == 0 || identical == 0 {
		t.Fatalf("weak corpus: %d reduced, %d identical trials", reduced, identical)
	}
}

// --- Postsolved duals across solvers (satellite 4) -----------------------

// checkDualsMax asserts the postsolved duals of a maximisation problem
// are a feasible dual certificate of the *original* problem at the
// primal value: sign constraints per relation, dual feasibility per
// column, and strong duality. This is strictly stronger than checking
// the reduced problem's duals — dropped rows must come back with
// multipliers that keep every column feasible.
func checkDualsMax(t *testing.T, p *Problem, sol Solution) {
	t.Helper()
	if p.Minimize {
		t.Fatal("checkDualsMax wants a maximisation problem")
	}
	y := sol.Duals()
	if len(y) != len(p.Constraints) {
		t.Fatalf("duals length %d, want %d", len(y), len(p.Constraints))
	}
	dualVal := 0.0
	for i, c := range p.Constraints {
		switch c.Rel {
		case LE:
			if y[i] < -tol {
				t.Fatalf("LE row %d: dual %v < 0", i, y[i])
			}
		case GE:
			if y[i] > tol {
				t.Fatalf("GE row %d: dual %v > 0", i, y[i])
			}
		}
		dualVal += y[i] * c.RHS
	}
	scale := math.Max(1, math.Abs(sol.Value))
	if math.Abs(dualVal-sol.Value) > 1e-7*scale {
		t.Fatalf("strong duality: y·b = %v vs value %v", dualVal, sol.Value)
	}
	for j := range p.Obj {
		s := 0.0
		for i, c := range p.Constraints {
			s += y[i] * c.Coeffs[j]
		}
		if s < p.Obj[j]-1e-7*scale {
			t.Fatalf("column %d dual-infeasible: Σ y·a = %v < c = %v", j, s, p.Obj[j])
		}
	}
}

// checkDualsEither is checkDualsMax generalised to both senses, used on
// random problems.
func checkDualsEither(t *testing.T, p *Problem, sol Solution) {
	t.Helper()
	if !p.Minimize {
		checkDualsMax(t, p, sol)
		return
	}
	y := sol.Duals()
	if len(y) != len(p.Constraints) {
		t.Fatalf("duals length %d, want %d", len(y), len(p.Constraints))
	}
	dualVal := 0.0
	for i, c := range p.Constraints {
		switch c.Rel {
		case LE:
			if y[i] > tol {
				t.Fatalf("min LE row %d: dual %v > 0", i, y[i])
			}
		case GE:
			if y[i] < -tol {
				t.Fatalf("min GE row %d: dual %v < 0", i, y[i])
			}
		}
		dualVal += y[i] * c.RHS
	}
	scale := math.Max(1, math.Abs(sol.Value))
	if math.Abs(dualVal-sol.Value) > 1e-7*scale {
		t.Fatalf("strong duality: y·b = %v vs value %v", dualVal, sol.Value)
	}
	for j := range p.Obj {
		s := 0.0
		for i, c := range p.Constraints {
			s += y[i] * c.Coeffs[j]
		}
		if s > p.Obj[j]+1e-7*scale {
			t.Fatalf("min column %d dual-infeasible: Σ y·a = %v > c = %v", j, s, p.Obj[j])
		}
	}
}

// TestPostsolveDualsAcrossSolvers: the same presolved problem solved by
// the dense simplex and by a reused Workspace — each
// postsolved Solution must carry a valid dual certificate of the
// original, with the eliminated EQ singleton's dual reconstructed (it is
// nonzero here: the fixed variable is worth 2 per unit in the objective
// and consumes nothing else).
func TestPostsolveDualsAcrossSolvers(t *testing.T) {
	p := &Problem{
		Obj: []float64{2, 3, 5},
		Constraints: []Constraint{
			{Coeffs: []float64{4, 0, 0}, Rel: EQ, RHS: 8}, // x0 = 2, dual must land at 1/2
			{Coeffs: []float64{0, 1, 2}, Rel: LE, RHS: 6},
			{Coeffs: []float64{0, 0, 0}, Rel: LE, RHS: 1}, // redundant zero row, dual 0
		},
	}
	ps, err := PresolveProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	if ps.RowsDropped() != 2 || ps.ColsFixed() != 1 {
		t.Fatalf("reduction shape: %d rows, %d cols", ps.RowsDropped(), ps.ColsFixed())
	}
	ws := NewWorkspace()
	runs := map[string]func(*Problem) (Solution, error){
		"dense":     Solve,
		"workspace": ws.Solve,
	}
	for name, solve := range runs {
		sol, err := solve(ps.Reduced)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := ps.Postsolve(sol)
		// Optimum: x0 = 2 fixed, then x1 = 6 beats x2 = 3 (3·6 > 5·3),
		// so value = 2·2 + 18 = 22.
		if out.Status != Optimal || math.Abs(out.Value-22) > tol {
			t.Fatalf("%s: %v / %v", name, out.Status, out.Value)
		}
		y := out.Duals()
		if math.Abs(y[0]-0.5) > tol {
			t.Fatalf("%s: substituted row dual %v, want 0.5", name, y[0])
		}
		if y[2] != 0 {
			t.Fatalf("%s: dropped row dual %v, want 0", name, y[2])
		}
		checkDualsMax(t, p, out)
	}
}

// TestPostsolveStaleDualsPanic: the lazy-dual stale-read protection must
// survive postsolve — reading Duals through the postsolved Solution
// after the workspace moved on panics exactly as the inner read would.
func TestPostsolveStaleDualsPanic(t *testing.T) {
	p := &Problem{
		Obj: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{0, 0}, Rel: LE, RHS: 2}, // ensures a reduction fires
			{Coeffs: []float64{1, 1}, Rel: LE, RHS: 4},
		},
	}
	ps, err := PresolveProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	sol, err := ws.Solve(ps.Reduced)
	if err != nil {
		t.Fatal(err)
	}
	out := ps.Postsolve(sol)
	ws.Begin(3) // invalidates the inner lazy duals
	defer func() {
		if recover() == nil {
			t.Fatal("stale Duals read through Postsolve did not panic")
		}
	}()
	out.Duals()
}
