// Package lp is a self-contained linear-programming substrate built only
// on the standard library. It provides a two-phase simplex solver over
// float64 on a condensed dense tableau (with Dantzig pivoting and a Bland
// anti-cycling fallback) and an exact twin over math/big rationals, plus
// front-ends for the max-min LPs and packing LPs used throughout the
// paper.
//
// All variables are implicitly nonnegative; this matches every program in
// the paper (x ≥ 0, and the auxiliary objective value ω of a max-min LP is
// nonnegative because C and x are).
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Rel is the relation of a constraint row.
type Rel int8

const (
	LE Rel = iota // Σ coeff·x ≤ rhs
	GE            // Σ coeff·x ≥ rhs
	EQ            // Σ coeff·x = rhs
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Constraint is one row of an LP.
type Constraint struct {
	Coeffs []float64 // dense, length = number of variables
	Rel    Rel
	RHS    float64
}

// Problem is a linear program over nonnegative variables:
//
//	maximise (or minimise) Obj · x
//	subject to the Constraints, x ≥ 0.
type Problem struct {
	Minimize    bool
	Obj         []float64
	Constraints []Constraint
}

// Status reports the outcome of Solve.
type Status int8

const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	X      []float64 // primal values, valid when Status == Optimal
	Value  float64   // objective value, valid when Status == Optimal
	Pivots int       // total simplex pivots performed

	// Lazy dual sources: the tableau simplex defers dual extraction to the
	// first Duals call (dws + the generation it solved in), Postsolve
	// installs a closure. Nil for non-optimal solutions.
	dws    *Workspace
	dgen   uint64
	dmin   bool
	dualFn func() []float64
}

// Duals returns one multiplier per constraint, valid when Status ==
// Optimal and nil otherwise. The multipliers are computed on demand from
// the final tableau — no hot-path caller reads them, so solves do not pay
// for the extraction. For tableau-simplex solutions obtained through a
// reused Workspace, Duals must be called before the next solve on that
// workspace (a stale read panics). The flip side of laziness: a retained
// Solution keeps the workspace tableau reachable; callers hoarding many
// Solutions should copy the fields they need and drop the Solution
// itself.
func (s Solution) Duals() []float64 {
	switch {
	case s.dws != nil:
		return s.dws.dualsFromTableau(s.dgen, s.dmin)
	case s.dualFn != nil:
		return s.dualFn()
	}
	return nil
}

// ErrNumerical is returned when the solver detects that floating-point
// round-off has corrupted the tableau beyond the configured tolerances.
var ErrNumerical = errors.New("lp: numerical difficulty")

const (
	epsPivot   = 1e-10 // entries below this are treated as zero in ratio tests
	epsReduced = 1e-9  // optimality tolerance on reduced costs
	epsPhase1  = 1e-7  // residual artificial infeasibility treated as zero
)

// PivotRule selects the entering-variable heuristic.
type PivotRule int8

const (
	// DantzigThenBland uses the most-positive reduced cost and switches to
	// Bland's rule after a pivot budget, guaranteeing termination.
	DantzigThenBland PivotRule = iota
	// BlandOnly always uses Bland's rule (smallest eligible index).
	BlandOnly
)

// Solve solves the problem with the default pivot rule.
func Solve(p *Problem) (Solution, error) { return SolveWithRule(p, DantzigThenBland) }

// SolveWithRule solves the problem with an explicit pivot rule. The
// algorithm is the classical two-phase tableau simplex: phase 1 minimises
// the sum of artificial variables to find a basic feasible solution, phase
// 2 optimises the real objective. It is a one-shot wrapper over a fresh
// Workspace; callers solving many LPs should hold a Workspace and reuse
// it (the results are bit-identical, the allocations are not).
func SolveWithRule(p *Problem, rule PivotRule) (Solution, error) {
	return NewWorkspace().SolveWithRule(p, rule)
}

var errUnbounded = errors.New("lp: unbounded")

// tableau is the condensed simplex tableau: it stores only the nonbasic
// columns. Column indices keep the full layout — [0, nVars) original
// variables, [nVars, artStart) slack/surplus variables, [artStart, nCols)
// artificial variables — but rows[r] holds one entry per slot, and
// slotCol[k] is the nonbasic column stored in slot k. A basic column is
// implicit: basis[r]'s column is the unit vector e_r with reduced cost 0.
// A pivot hands the entering column's slot to the leaving column, so the
// width nCols − m never changes. rhs is stored separately; obj is the
// reduced-cost row (one entry per slot) and objRHS the objective value.
//
// All backing arrays are owned by the tableau and recycled by reset, so
// a long-lived Workspace reaches a steady state with no per-solve
// allocation.
type tableau struct {
	nVars    int
	nSlack   int
	artStart int
	nCols    int

	arena   []float64 // m rows of stride len(slotCol); rows[r] points into it
	rows    [][]float64
	rhs     []float64
	basis   []int
	slotCol []int
	obj     []float64
	objRHS  float64

	costBuf  []float64 // scratch cost vector (per column) for the phase objectives
	candBuf  []int     // scratch row list of the ratio test
	fBuf     []float64 // scratch per-row elimination factors of a pivot
	ratioBuf []float64 // scratch ratios of the ratio test

	needPhase1 bool
	inPhase2   bool
}

// reset sizes the tableau for a problem with nVars variables, m rows,
// nSlack slacks and nArt artificials, reusing every backing array whose
// capacity suffices. Row contents and slotCol are garbage after reset;
// buildTableau overwrites them completely.
func (t *tableau) reset(nVars, m, nSlack, nArt int) {
	t.nVars = nVars
	t.nSlack = nSlack
	t.artStart = nVars + nSlack
	t.nCols = t.artStart + nArt
	t.needPhase1 = nArt > 0
	t.inPhase2 = false
	t.objRHS = 0
	width := t.nCols - m // every row has exactly one basic column
	t.arena = growFloats(t.arena, m*width)
	t.rows = growRowHdrs(t.rows, m)
	for r := 0; r < m; r++ {
		t.rows[r] = t.arena[r*width : (r+1)*width]
	}
	t.rhs = growFloats(t.rhs, m)
	t.basis = growInts(t.basis, m)
	t.slotCol = growInts(t.slotCol, width)
	t.obj = growFloats(t.obj, width)
	t.costBuf = growFloats(t.costBuf, t.nCols)
	t.candBuf = growInts(t.candBuf, m)
	t.fBuf = growFloats(t.fBuf, m)
	t.ratioBuf = growFloats(t.ratioBuf, m)
}

// setPhase1Objective installs "maximise −Σ artificials" as the reduced-cost
// row, priced out against the current (artificial) basis.
func (t *tableau) setPhase1Objective() {
	costs := t.costBuf
	clear(costs)
	for j := t.artStart; j < t.nCols; j++ {
		costs[j] = -1
	}
	t.priceOut(costs)
	t.inPhase2 = false
}

// setPhase2Objective installs the real objective, priced out against the
// current basis. Artificial columns are barred from entering in phase 2
// (see chooseEntering) but keep their reduced costs, which carry the
// multipliers of EQ rows.
func (t *tableau) setPhase2Objective(obj []float64, minimize bool) {
	costs := t.costBuf
	clear(costs)
	for j := 0; j < t.nVars; j++ {
		if minimize {
			costs[j] = -obj[j]
		} else {
			costs[j] = obj[j]
		}
	}
	t.priceOut(costs)
	t.inPhase2 = true
}

// priceOut sets obj[k] = costs[slotCol[k]] − Σ_r costs[basis[r]]·rows[r][k]
// and objRHS = Σ_r costs[basis[r]]·rhs[r].
func (t *tableau) priceOut(costs []float64) {
	for k, c := range t.slotCol {
		t.obj[k] = costs[c]
	}
	t.objRHS = 0
	for r, b := range t.basis {
		cb := costs[b]
		if cb == 0 {
			continue
		}
		subScaled(t.obj, t.rows[r], cb)
		t.objRHS += cb * t.rhs[r]
	}
}

func (t *tableau) objValue() float64 { return t.objRHS }

// iterate runs primal simplex pivots until optimality or unboundedness.
func (t *tableau) iterate(rule PivotRule, pivots *int) error {
	budget := dantzigBudget(len(t.rows), t.nCols)
	useBland := rule == BlandOnly
	for iter := 0; ; iter++ {
		if iter > budget && !useBland {
			useBland = true // anti-cycling fallback
		}
		if iter > 16*budget+10000 {
			return fmt.Errorf("%w: pivot limit exceeded", ErrNumerical)
		}
		enter := t.chooseEntering(useBland)
		if enter < 0 {
			return nil // optimal
		}
		leave := t.chooseLeaving(enter, useBland)
		if leave < 0 {
			if !t.inPhase2 {
				// Phase-1 objective is bounded by construction; an unbounded
				// ray here means round-off corrupted the tableau.
				return fmt.Errorf("%w: unbounded phase-1 ray", ErrNumerical)
			}
			return errUnbounded
		}
		t.pivot(leave, enter)
		*pivots++
	}
}

func dantzigBudget(m, n int) int { return 50 * (m + n + 10) }

// chooseEntering returns the slot of the entering column, or -1 at
// optimality. Slots are not in column order, so ties are broken by the
// smaller column index: the result is the column a scan in column order
// would pick — Dantzig's first maximal reduced cost, or Bland's smallest
// eligible index.
func (t *tableau) chooseEntering(bland bool) int {
	best, bestCol, bestVal := -1, 0, epsReduced
	for k, v := range t.obj {
		c := t.slotCol[k]
		if t.inPhase2 && c >= t.artStart {
			continue // artificials may not re-enter in phase 2
		}
		if bland {
			if v > epsReduced && (best < 0 || c < bestCol) {
				best, bestCol = k, c
			}
		} else if v > bestVal || (best >= 0 && v == bestVal && c < bestCol) {
			best, bestCol, bestVal = k, c, v
		}
	}
	return best
}

// chooseLeaving runs the ratio test on the column in slot enter. It
// lists the rows with a usable pivot entry without branching on the
// entries, divides for all of them in one pass so the divisions overlap,
// then scans the list in row order: the same comparisons as a scan over
// every row, without a mispredicted branch per ineligible row or a
// comparison stalled on each division.
func (t *tableau) chooseLeaving(enter int, bland bool) int {
	cand := t.candBuf[:len(t.rows)]
	n := 0
	for r, row := range t.rows {
		cand[n] = r
		if row[enter] > epsPivot {
			n++
		}
	}
	ratios := t.ratioBuf[:n]
	for i, r := range cand[:n] {
		ratios[i] = t.rhs[r] / t.rows[r][enter]
	}
	best := -1
	var bestRatio, bestA float64
	for i, r := range cand[:n] {
		a, ratio := t.rows[r][enter], ratios[i]
		switch {
		case best < 0, ratio < bestRatio-epsPivot:
			best, bestRatio, bestA = r, ratio, a
		case ratio < bestRatio+epsPivot:
			// Tie: Bland breaks by smallest basic index; Dantzig by largest
			// pivot element for stability.
			if bland {
				if t.basis[r] < t.basis[best] {
					best, bestRatio, bestA = r, ratio, a
				}
			} else if a > bestA {
				best, bestRatio, bestA = r, ratio, a
			}
		}
	}
	return best
}

// pivot makes the column in slot enter basic in row r. The leaving
// column basis[r] takes over the slot: its implicit unit column e_r
// becomes 1·inv in the pivot row and 0 − f·inv in every other row,
// which the uniform update below produces once the slot is preset to 1
// in the pivot row and to 0 elsewhere. Every other entry gets the
// textbook row[k] *= inv; other[k] −= f·row[k].
func (t *tableau) pivot(r, enter int) {
	row := t.rows[r]
	inv := 1 / row[enter]
	row[enter] = 1
	for k := range row {
		row[k] *= inv
	}
	t.rhs[r] *= inv
	fs := t.fBuf[:len(t.rows)]
	for rr, other := range t.rows {
		f := other[enter]
		if rr == r {
			f = 0
		}
		fs[rr] = f
		if f == 0 {
			continue
		}
		other[enter] = 0
		t.rhs[rr] -= f * t.rhs[r]
		if t.rhs[rr] < 0 && t.rhs[rr] > -epsPivot {
			t.rhs[rr] = 0
		}
	}
	eliminate(t.rows, fs, row)
	if f := t.obj[enter]; f != 0 {
		t.obj[enter] = 0
		subScaled(t.obj, row, f)
		t.objRHS += f * t.rhs[r]
	}
	t.basis[r], t.slotCol[enter] = t.slotCol[enter], t.basis[r]
}

// expelArtificials pivots basic artificial variables (at value 0 after a
// successful phase 1) out of the basis, or drops redundant rows.
func (t *tableau) expelArtificials() error {
	for r := 0; r < len(t.rows); r++ {
		if t.basis[r] < t.artStart {
			continue
		}
		// Pivot on the real column of smallest index with a usable entry
		// in this row (basic columns are zero off their own row).
		found, foundCol := -1, t.artStart
		for k, c := range t.slotCol {
			if c < foundCol && math.Abs(t.rows[r][k]) > epsPivot {
				found, foundCol = k, c
			}
		}
		if found >= 0 {
			t.pivot(r, found)
			continue
		}
		// Row is redundant: remove it. Its artificial leaves the basis
		// without taking a slot: the column is zero in every remaining row,
		// may not enter in phase 2, and its phase-2 reduced cost is +0.
		last := len(t.rows) - 1
		t.rows[r], t.rows[last] = t.rows[last], t.rows[r]
		t.rhs[r], t.rhs[last] = t.rhs[last], t.rhs[r]
		t.basis[r], t.basis[last] = t.basis[last], t.basis[r]
		t.rows = t.rows[:last]
		t.rhs = t.rhs[:last]
		t.basis = t.basis[:last]
		r--
	}
	return nil
}
