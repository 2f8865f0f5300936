package lp

import (
	"fmt"
	"math"
	"math/big"

	"maxminlp/internal/mmlp"
)

// MaxMinResult is the outcome of solving a max-min LP to optimality.
type MaxMinResult struct {
	X      []float64 // one activity per agent
	Omega  float64   // optimal objective min_k Σ_v c_kv x_v
	Pivots int
}

// SolveMaxMin solves the max-min LP (1) of the paper to optimality with
// the float64 simplex. The LP formulation follows Section 1.3: maximise ω
// subject to Ax ≤ 1, ω·1 − Cx ≤ 0, x ≥ 0 (ω ≥ 0 is without loss of
// generality because C ≥ 0 and x ≥ 0). Every constraint is ≤ with
// nonnegative right-hand side, so phase 1 is never needed and the solve is
// a single simplex run from the all-slack basis.
//
// Instances without parties have ω = +Inf by convention (minimum over the
// empty set); SolveMaxMin then returns x = 0.
func SolveMaxMin(in *mmlp.Instance) (MaxMinResult, error) {
	n := in.NumAgents()
	if in.NumParties() == 0 {
		return MaxMinResult{X: make([]float64, n), Omega: math.Inf(1)}, nil
	}
	p := maxMinProblem(in)
	sol, err := Solve(p)
	if err != nil {
		return MaxMinResult{}, err
	}
	switch sol.Status {
	case Optimal:
	case Unbounded:
		// Impossible for valid instances: every agent consumes a resource,
		// so every variable (and hence ω) is bounded.
		return MaxMinResult{}, fmt.Errorf("lp: max-min LP unbounded; instance violates Iv ≠ ∅ assumption")
	default:
		// x = 0, ω = 0 is always feasible, so this cannot happen either.
		return MaxMinResult{}, fmt.Errorf("lp: max-min LP reported %v", sol.Status)
	}
	return MaxMinResult{X: sol.X[:n], Omega: sol.Value, Pivots: sol.Pivots}, nil
}

// maxMinProblem builds the LP of Section 1.3 with variables x_0..x_{n-1}, ω.
func maxMinProblem(in *mmlp.Instance) *Problem {
	n := in.NumAgents()
	obj := make([]float64, n+1)
	obj[n] = 1 // maximise ω
	cons := make([]Constraint, 0, in.NumResources()+in.NumParties())
	for i := 0; i < in.NumResources(); i++ {
		row := make([]float64, n+1)
		for _, e := range in.Resource(i) {
			row[e.Agent] = e.Coeff
		}
		cons = append(cons, Constraint{Coeffs: row, Rel: LE, RHS: 1})
	}
	for k := 0; k < in.NumParties(); k++ {
		row := make([]float64, n+1)
		for _, e := range in.Party(k) {
			row[e.Agent] = -e.Coeff
		}
		row[n] = 1 // ω − Σ c_kv x_v ≤ 0
		cons = append(cons, Constraint{Coeffs: row, Rel: LE, RHS: 0})
	}
	return &Problem{Obj: obj, Constraints: cons}
}

// RatMaxMinResult is the exact counterpart of MaxMinResult.
type RatMaxMinResult struct {
	X      []*big.Rat
	Omega  *big.Rat
	Pivots int
}

// SolveMaxMinRat solves the max-min LP exactly over rationals. Instance
// coefficients are converted from float64 exactly (every float64 is a
// rational). Returns Omega == nil for instances without parties (ω = +∞).
func SolveMaxMinRat(in *mmlp.Instance) (RatMaxMinResult, error) {
	n := in.NumAgents()
	if in.NumParties() == 0 {
		x := make([]*big.Rat, n)
		for i := range x {
			x[i] = new(big.Rat)
		}
		return RatMaxMinResult{X: x}, nil
	}
	obj := make([]*big.Rat, n+1)
	obj[n] = big.NewRat(1, 1)
	one := big.NewRat(1, 1)
	var cons []RatConstraint
	for i := 0; i < in.NumResources(); i++ {
		row := make([]*big.Rat, n+1)
		for _, e := range in.Resource(i) {
			row[e.Agent] = floatRat(e.Coeff)
		}
		cons = append(cons, RatConstraint{Coeffs: row, Rel: LE, RHS: new(big.Rat).Set(one)})
	}
	for k := 0; k < in.NumParties(); k++ {
		row := make([]*big.Rat, n+1)
		for _, e := range in.Party(k) {
			row[e.Agent] = new(big.Rat).Neg(floatRat(e.Coeff))
		}
		row[n] = new(big.Rat).Set(one)
		cons = append(cons, RatConstraint{Coeffs: row, Rel: LE, RHS: new(big.Rat)})
	}
	sol, err := SolveRat(&RatProblem{Obj: obj, Constraints: cons})
	if err != nil {
		return RatMaxMinResult{}, err
	}
	if sol.Status != Optimal {
		return RatMaxMinResult{}, fmt.Errorf("lp: exact max-min LP reported %v", sol.Status)
	}
	return RatMaxMinResult{X: sol.X[:n], Omega: sol.Value, Pivots: sol.Pivots}, nil
}

func floatRat(f float64) *big.Rat {
	r := new(big.Rat)
	if r.SetFloat64(f) == nil {
		panic(fmt.Sprintf("lp: non-finite coefficient %v", f))
	}
	return r
}

// SolvePacking solves the packing LP "maximise c·x s.t. Ax ≤ 1, x ≥ 0"
// given as an instance whose parties are ignored and whose objective is c.
// It is the |K| = 1 special case discussed throughout the paper.
func SolvePacking(in *mmlp.Instance, c []float64) (Solution, error) {
	n := in.NumAgents()
	if len(c) != n {
		return Solution{}, fmt.Errorf("lp: objective has %d entries, want %d", len(c), n)
	}
	cons := make([]Constraint, in.NumResources())
	for i := 0; i < in.NumResources(); i++ {
		row := make([]float64, n)
		for _, e := range in.Resource(i) {
			row[e.Agent] = e.Coeff
		}
		cons[i] = Constraint{Coeffs: row, Rel: LE, RHS: 1}
	}
	obj := make([]float64, n)
	copy(obj, c)
	return Solve(&Problem{Obj: obj, Constraints: cons})
}
