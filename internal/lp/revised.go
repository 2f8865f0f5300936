package lp

import (
	"fmt"
	"math"
)

// SolveRevised solves the problem with the revised simplex method:
// instead of carrying a dense tableau (O(m·n) updated per pivot), it
// maintains the basis inverse B⁻¹ (m×m) and works with the sparse
// original columns. Pricing is O(Σ nnz) and a pivot is O(m²). On the
// max-min LPs of BenchmarkLPBackends (tori up to 256 agents) it is
// nevertheless slower than the condensed tableau, whose contiguous
// row updates vectorise; it stays as an independent second solver.
//
// Semantics match Solve exactly: nonnegative variables, LE/GE/EQ rows,
// two phases, Dantzig pricing with a Bland anti-cycling fallback. The
// optimal basis is re-verified against the original constraints before
// returning; accumulated round-off beyond tolerance yields ErrNumerical.
func SolveRevised(p *Problem) (Solution, error) {
	sp, err := denseToSparse(p)
	if err != nil {
		return Solution{}, err
	}
	return SolveRevisedSparse(sp)
}

// SparseEntry is one nonzero of a sparse column.
type SparseEntry struct {
	Row int
	Val float64
}

// SparseProblem is a column-oriented LP over nonnegative variables, the
// native input of the revised simplex. Cols[j] lists the nonzeros of
// variable j; Rels and RHS describe the rows. Building a SparseProblem
// directly avoids the O(rows·vars) dense row materialisation of Problem,
// which dominates memory for large max-min LPs (a torus instance has ≤ 6
// nonzeros per column regardless of size).
type SparseProblem struct {
	Minimize bool
	Obj      []float64
	Cols     [][]SparseEntry
	Rels     []Rel
	RHS      []float64
}

func denseToSparse(p *Problem) (*SparseProblem, error) {
	n := len(p.Obj)
	m := len(p.Constraints)
	sp := &SparseProblem{
		Minimize: p.Minimize,
		Obj:      p.Obj,
		Cols:     make([][]SparseEntry, n),
		Rels:     make([]Rel, m),
		RHS:      make([]float64, m),
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != n {
			return nil, fmt.Errorf("lp: constraint %d has %d coefficients, want %d", i, len(c.Coeffs), n)
		}
		sp.Rels[i] = c.Rel
		sp.RHS[i] = c.RHS
		for j, a := range c.Coeffs {
			if a != 0 {
				sp.Cols[j] = append(sp.Cols[j], SparseEntry{Row: i, Val: a})
			}
		}
	}
	return sp, nil
}

// SolveRevisedSparse solves a column-oriented LP with the revised simplex.
func SolveRevisedSparse(p *SparseProblem) (Solution, error) {
	r, err := newRevised(p)
	if err != nil {
		return Solution{}, err
	}
	// Exact zero-row verdicts, mirroring the dense solver: a row no
	// structural column touches is Infeasible when its rhs sign can
	// never be satisfied by an empty sum (LE rhs < 0, GE rhs > 0, EQ
	// rhs ≠ 0). The phase-1 tolerance would otherwise accept rhs within
	// epsPhase1 and leave a negative basic slack in the final basis.
	rowUsed := make([]bool, r.m)
	for j := 0; j < r.nVars; j++ {
		for _, row := range r.cols[j].rows {
			rowUsed[row] = true
		}
	}
	for i, used := range rowUsed {
		if used {
			continue
		}
		rhs := p.RHS[i]
		if (p.Rels[i] == LE && rhs < 0) || (p.Rels[i] == GE && rhs > 0) || (p.Rels[i] == EQ && rhs != 0) {
			return Solution{Status: Infeasible}, nil
		}
	}
	sol := Solution{}
	if r.needPhase1 {
		r.setPhase1()
		if err := r.iterate(&sol.Pivots); err != nil {
			return Solution{}, err
		}
		if r.objective() < -epsPhase1 {
			sol.Status = Infeasible
			return sol, nil
		}
	}
	r.setPhase2()
	if err := r.iterate(&sol.Pivots); err != nil {
		if err == errUnbounded {
			sol.Status = Unbounded
			return sol, nil
		}
		return Solution{}, err
	}
	x := r.primal()
	if err := r.verify(x); err != nil {
		return Solution{}, err
	}
	sol.Status = Optimal
	sol.X = x
	sol.Value = r.objective()
	if p.Minimize {
		sol.Value = -sol.Value
	}
	sol.dualFn = r.duals // lazily extracted; r stays alive until then
	return sol, nil
}

// sparseCol is one column of the constraint matrix in (row, value) form.
type sparseCol struct {
	rows []int32
	vals []float64
}

type revised struct {
	p        *SparseProblem
	m        int // rows
	nVars    int // structural variables
	nCols    int // structural + slack + artificial
	artStart int

	cols []sparseCol // all columns, sparse
	b    []float64   // normalised rhs (≥ 0)

	cost   []float64 // current phase's objective (maximisation form)
	basis  []int     // basis[r] = column basic in row r
	inBase []bool
	binv   [][]float64 // B⁻¹, m×m
	xb     []float64   // current basic solution values

	flip     []bool // row sign-flipped during normalisation
	slackCol []int  // slack column per original row, -1 for EQ
	slackNeg []bool

	needPhase1 bool
	inPhase2   bool
}

func newRevised(p *SparseProblem) (*revised, error) {
	n := len(p.Obj)
	if len(p.Cols) != n {
		return nil, fmt.Errorf("lp: %d columns for %d variables", len(p.Cols), n)
	}
	if len(p.Rels) != len(p.RHS) {
		return nil, fmt.Errorf("lp: %d relations for %d right-hand sides", len(p.Rels), len(p.RHS))
	}
	m := len(p.RHS)
	r := &revised{
		p: p, m: m, nVars: n,
		b:        make([]float64, m),
		basis:    make([]int, m),
		xb:       make([]float64, m),
		flip:     make([]bool, m),
		slackCol: make([]int, m),
		slackNeg: make([]bool, m),
	}
	nSlack, nArt := 0, 0
	rels := make([]Rel, m)
	for i, rhs := range p.RHS {
		if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
			return nil, fmt.Errorf("lp: constraint %d has non-finite rhs %v", i, rhs)
		}
		rel := p.Rels[i]
		if rhs < 0 {
			r.flip[i] = true
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rels[i] = rel
		switch rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	r.artStart = n + nSlack
	r.nCols = n + nSlack + nArt
	r.cols = make([]sparseCol, r.nCols)
	r.inBase = make([]bool, r.nCols)

	// Structural columns.
	for i, rhs := range p.RHS {
		sign := 1.0
		if r.flip[i] {
			sign = -1
		}
		r.b[i] = sign * rhs
	}
	for j, col := range p.Cols {
		for _, e := range col {
			if e.Row < 0 || e.Row >= m {
				return nil, fmt.Errorf("lp: column %d references row %d out of range", j, e.Row)
			}
			if e.Val == 0 {
				continue
			}
			a := e.Val
			if r.flip[e.Row] {
				a = -a
			}
			r.cols[j].rows = append(r.cols[j].rows, int32(e.Row))
			r.cols[j].vals = append(r.cols[j].vals, a)
		}
	}
	// Slack and artificial columns; initial basis.
	slack, art := n, r.artStart
	for i := range p.RHS {
		r.slackCol[i] = -1
		switch rels[i] {
		case LE:
			r.cols[slack] = sparseCol{rows: []int32{int32(i)}, vals: []float64{1}}
			r.basis[i] = slack
			r.slackCol[i] = slack
			slack++
		case GE:
			r.cols[slack] = sparseCol{rows: []int32{int32(i)}, vals: []float64{-1}}
			r.slackCol[i] = slack
			r.slackNeg[i] = true
			slack++
			r.cols[art] = sparseCol{rows: []int32{int32(i)}, vals: []float64{1}}
			r.basis[i] = art
			art++
			r.needPhase1 = true
		case EQ:
			r.cols[art] = sparseCol{rows: []int32{int32(i)}, vals: []float64{1}}
			r.basis[i] = art
			art++
			r.needPhase1 = true
		}
	}
	for _, bcol := range r.basis {
		r.inBase[bcol] = true
	}
	// Initial basis is the identity (unit slack/artificial columns).
	r.binv = make([][]float64, m)
	for i := range r.binv {
		r.binv[i] = make([]float64, m)
		r.binv[i][i] = 1
	}
	copy(r.xb, r.b)
	return r, nil
}

func (r *revised) setPhase1() {
	r.cost = make([]float64, r.nCols)
	for j := r.artStart; j < r.nCols; j++ {
		r.cost[j] = -1
	}
	r.inPhase2 = false
}

func (r *revised) setPhase2() {
	r.cost = make([]float64, r.nCols)
	for j := 0; j < r.nVars; j++ {
		if r.p.Minimize {
			r.cost[j] = -r.p.Obj[j]
		} else {
			r.cost[j] = r.p.Obj[j]
		}
	}
	r.inPhase2 = true
}

func (r *revised) objective() float64 {
	var z float64
	for row, bcol := range r.basis {
		z += r.cost[bcol] * r.xb[row]
	}
	return z
}

// simplexMultipliers computes y = c_B · B⁻¹.
func (r *revised) simplexMultipliers() []float64 {
	y := make([]float64, r.m)
	for row, bcol := range r.basis {
		cb := r.cost[bcol]
		if cb == 0 {
			continue
		}
		binvRow := r.binv[row]
		for col := 0; col < r.m; col++ {
			y[col] += cb * binvRow[col]
		}
	}
	return y
}

func (r *revised) reducedCost(j int, y []float64) float64 {
	rc := r.cost[j]
	col := &r.cols[j]
	for k, row := range col.rows {
		rc -= y[row] * col.vals[k]
	}
	return rc
}

// direction computes d = B⁻¹ · A_j.
func (r *revised) direction(j int) []float64 {
	d := make([]float64, r.m)
	col := &r.cols[j]
	for k, row := range col.rows {
		a := col.vals[k]
		for i := 0; i < r.m; i++ {
			d[i] += r.binv[i][row] * a
		}
	}
	return d
}

func (r *revised) iterate(pivots *int) error {
	budget := dantzigBudget(r.m, r.nCols)
	useBland := false
	for iter := 0; ; iter++ {
		if iter > budget {
			useBland = true
		}
		if iter > 16*budget+10000 {
			return fmt.Errorf("%w: revised pivot limit exceeded", ErrNumerical)
		}
		y := r.simplexMultipliers()
		limit := r.nCols
		if r.inPhase2 {
			limit = r.artStart
		}
		enter := -1
		bestRC := epsReduced
		for j := 0; j < limit; j++ {
			if r.inBase[j] {
				continue
			}
			rc := r.reducedCost(j, y)
			if rc > epsReduced {
				if useBland {
					enter = j
					break
				}
				if rc > bestRC {
					enter, bestRC = j, rc
				}
			}
		}
		if enter < 0 {
			return nil
		}
		d := r.direction(enter)
		leave := r.chooseLeaving(d, useBland)
		if leave < 0 {
			if !r.inPhase2 {
				return fmt.Errorf("%w: unbounded phase-1 ray", ErrNumerical)
			}
			return errUnbounded
		}
		r.pivot(leave, enter, d)
		*pivots++
	}
}

func (r *revised) chooseLeaving(d []float64, bland bool) int {
	// In phase 2, a basic artificial moving away from zero would silently
	// violate its original constraint; force it out first.
	if r.inPhase2 {
		for row, bcol := range r.basis {
			if bcol >= r.artStart && math.Abs(d[row]) > epsPivot {
				return row
			}
		}
	}
	best := -1
	var bestRatio float64
	for row := 0; row < r.m; row++ {
		if d[row] <= epsPivot {
			continue
		}
		ratio := r.xb[row] / d[row]
		switch {
		case best < 0, ratio < bestRatio-epsPivot:
			best, bestRatio = row, ratio
		case ratio < bestRatio+epsPivot:
			if bland {
				if r.basis[row] < r.basis[best] {
					best, bestRatio = row, ratio
				}
			} else if d[row] > d[best] {
				best, bestRatio = row, ratio
			}
		}
	}
	return best
}

// pivot brings column enter into the basis at row leave, updating B⁻¹ by
// the product-form elimination and xb incrementally.
func (r *revised) pivot(leave, enter int, d []float64) {
	pivotVal := d[leave]
	theta := r.xb[leave] / pivotVal

	binvLeave := r.binv[leave]
	inv := 1 / pivotVal
	for col := 0; col < r.m; col++ {
		binvLeave[col] *= inv
	}
	for row := 0; row < r.m; row++ {
		if row == leave {
			continue
		}
		f := d[row]
		if f == 0 {
			continue
		}
		binvRow := r.binv[row]
		for col := 0; col < r.m; col++ {
			binvRow[col] -= f * binvLeave[col]
		}
		r.xb[row] -= f * theta
		if r.xb[row] < 0 && r.xb[row] > -epsPivot {
			r.xb[row] = 0
		}
	}
	r.xb[leave] = theta
	r.inBase[r.basis[leave]] = false
	r.inBase[enter] = true
	r.basis[leave] = enter
}

func (r *revised) primal() []float64 {
	x := make([]float64, r.nVars)
	for row, bcol := range r.basis {
		if bcol < r.nVars {
			v := r.xb[row]
			if v < 0 && v > -epsPivot {
				v = 0
			}
			x[bcol] = v
		}
	}
	return x
}

// verify re-checks the candidate optimum against the *original*
// constraints; the revised method's incremental B⁻¹ can drift, and a
// silent violation would corrupt downstream guarantees.
func (r *revised) verify(x []float64) error {
	const feasTol = 1e-6
	lhs := make([]float64, r.m)
	for j, col := range r.p.Cols {
		if x[j] == 0 {
			continue
		}
		for _, e := range col {
			lhs[e.Row] += e.Val * x[j]
		}
	}
	for i, rhs := range r.p.RHS {
		var bad bool
		switch r.p.Rels[i] {
		case LE:
			bad = lhs[i] > rhs+feasTol*(1+math.Abs(rhs))
		case GE:
			bad = lhs[i] < rhs-feasTol*(1+math.Abs(rhs))
		case EQ:
			bad = math.Abs(lhs[i]-rhs) > feasTol*(1+math.Abs(rhs))
		}
		if bad {
			return fmt.Errorf("%w: constraint %d violated by %g after revised solve", ErrNumerical, i, lhs[i]-rhs)
		}
	}
	for j, xj := range x {
		if xj < -feasTol {
			return fmt.Errorf("%w: variable %d negative (%g)", ErrNumerical, j, xj)
		}
	}
	return nil
}

// duals recovers one multiplier per original constraint from the final
// simplex multipliers y = c_B·B⁻¹, undoing row flips and the minimise
// transformation (mirroring the dense solver's convention).
func (r *revised) duals() []float64 {
	y := r.simplexMultipliers()
	out := make([]float64, r.m)
	for i := 0; i < r.m; i++ {
		v := y[i]
		if r.flip[i] {
			v = -v
		}
		if r.p.Minimize {
			v = -v
		}
		out[i] = v
	}
	return out
}
