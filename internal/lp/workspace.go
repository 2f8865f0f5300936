package lp

import (
	"errors"
	"fmt"
	"math"

	"maxminlp/internal/obs"
)

// Workspace is a reusable, growable arena for the dense two-phase
// simplex. A workspace owns every buffer a solve needs — the staged
// constraint rows, the tableau rows and right-hand sides, the basis and
// cost vectors, and the solution buffer — so that repeated solves of
// similarly-sized problems perform no allocation at all in the steady
// state. Solving through a workspace runs the exact same pivot code as
// the package-level Solve (which is itself a one-shot wrapper over a
// fresh workspace), so the pivot sequence, every intermediate float and
// the final solution are bit-identical between the two entry points.
//
// Problems are either passed whole (Solve / SolveWithRule) or assembled
// in place through the row-staging API (Begin, Obj, AddRow, SolveStaged),
// which lets callers write constraint coefficients directly into
// workspace memory instead of materialising a []Constraint per solve.
//
// The Solution returned by a workspace solve aliases workspace memory:
// X (and the lazily computed Duals) are valid only until the next Begin,
// Solve or SolveStaged call on the same workspace. Callers that need the
// solution to outlive the next solve must copy it. A Workspace is not
// safe for concurrent use; concurrent solvers hold one workspace each.
type Workspace struct {
	// Staged problem: objRow is the objective (length nVars), rowArena
	// holds the constraint coefficients as m consecutive rows of stride
	// nVars, rels/rhsIn the relation and right-hand side per row.
	nVars    int
	objRow   []float64
	rowArena []float64
	rels     []Rel
	rhsIn    []float64

	plans []rowPlan
	t     tableau
	xBuf  []float64

	// gen counts Begin calls; Solutions remember the generation they were
	// produced in so stale lazy-dual reads fail loudly instead of reading
	// recycled tableau memory.
	gen uint64

	// m, when non-nil, receives solve accounting (solves, pivots, tableau
	// dimensions) from every staged solve. Nil — the default — costs one
	// branch per solve.
	m *obs.LPMetrics
}

// NewWorkspace returns an empty workspace. Buffers are allocated lazily
// on first use and grow to the high-water mark of the problems solved.
func NewWorkspace() *Workspace { return &Workspace{} }

// SetMetrics attaches (or, with nil, detaches) solve accounting: every
// staged solve that completes records its row/variable counts and pivot
// total. Metrics never change any output bit.
func (w *Workspace) SetMetrics(m *obs.LPMetrics) { w.m = m }

// rowPlan is the per-row normalisation decided before the tableau is
// filled: whether the row is sign-flipped to make its rhs nonnegative,
// the relation after flipping, and whether it needs an artificial.
type rowPlan struct {
	flip     bool
	rel      Rel
	needsArt bool
}

// Begin starts assembling a new problem with nVars (implicitly
// nonnegative) variables, discarding any previously staged rows and
// invalidating Solutions returned by earlier solves on this workspace.
func (w *Workspace) Begin(nVars int) {
	w.gen++
	w.nVars = nVars
	w.objRow = growFloats(w.objRow, nVars)
	clear(w.objRow)
	w.rowArena = w.rowArena[:0]
	w.rels = w.rels[:0]
	w.rhsIn = w.rhsIn[:0]
}

// Obj returns the staged objective row (length nVars, initially zero) for
// in-place writes. The slice is valid until the next Begin.
func (w *Workspace) Obj() []float64 { return w.objRow }

// AddRow appends a constraint with the given relation and right-hand side
// and returns its zeroed coefficient row (length nVars) for in-place
// writes. The returned slice is valid until the next AddRow, Begin or
// solve on this workspace.
func (w *Workspace) AddRow(rel Rel, rhs float64) []float64 {
	start := len(w.rowArena)
	end := start + w.nVars
	if cap(w.rowArena) < end {
		grown := make([]float64, start, 2*end)
		copy(grown, w.rowArena)
		w.rowArena = grown
	}
	w.rowArena = w.rowArena[:end]
	row := w.rowArena[start:end]
	clear(row)
	w.rels = append(w.rels, rel)
	w.rhsIn = append(w.rhsIn, rhs)
	return row
}

// NumRows returns the number of staged constraint rows.
func (w *Workspace) NumRows() int { return len(w.rels) }

// Solve solves the problem with the default pivot rule, bit-identically
// to the package-level Solve but reusing this workspace's memory.
func (w *Workspace) Solve(p *Problem) (Solution, error) {
	return w.SolveWithRule(p, DantzigThenBland)
}

// SolveWithRule stages p into the workspace and solves it. The staged
// copy holds the exact same float64 values as p, and the tableau built
// from it is element-for-element the one Solve has always built, so the
// pivot sequence and the solution are bit-identical to the one-shot path.
func (w *Workspace) SolveWithRule(p *Problem, rule PivotRule) (Solution, error) {
	n := len(p.Obj)
	for r, c := range p.Constraints {
		if len(c.Coeffs) != n {
			return Solution{}, fmt.Errorf("lp: constraint %d has %d coefficients, want %d", r, len(c.Coeffs), n)
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return Solution{}, fmt.Errorf("lp: constraint %d has non-finite rhs %v", r, c.RHS)
		}
	}
	w.Begin(n)
	copy(w.objRow, p.Obj)
	for _, c := range p.Constraints {
		copy(w.AddRow(c.Rel, c.RHS), c.Coeffs)
	}
	return w.solveStaged(p.Minimize, rule)
}

// SolveStaged solves the problem assembled through Begin/Obj/AddRow.
// The returned Solution aliases workspace memory (see the type docs).
func (w *Workspace) SolveStaged(minimize bool, rule PivotRule) (Solution, error) {
	for r, rhs := range w.rhsIn {
		if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
			return Solution{}, fmt.Errorf("lp: constraint %d has non-finite rhs %v", r, rhs)
		}
	}
	return w.solveStaged(minimize, rule)
}

// solveStaged runs the two-phase driver and records solve accounting for
// every completed solve (any status; errors record nothing).
func (w *Workspace) solveStaged(minimize bool, rule PivotRule) (Solution, error) {
	sol, err := w.solveStagedRun(minimize, rule)
	if err == nil {
		w.m.RecordSolve(len(w.rels), w.nVars, sol.Pivots)
	}
	return sol, err
}

// solveStagedRun is the two-phase driver over the staged rows — the body
// of the historical SolveWithRule, operating on workspace memory.
func (w *Workspace) solveStagedRun(minimize bool, rule PivotRule) (Solution, error) {
	// A row whose support emptied (topology churn can do this) must be
	// decided exactly: with every coefficient zero, LE needs rhs ≥ 0, GE
	// needs rhs ≤ 0 and EQ needs rhs == 0 — anything else is Infeasible
	// regardless of x. The phase-1 tolerance cannot be trusted here: a GE
	// zero row with 0 < rhs ≤ epsPhase1 passes phase 1 within tolerance
	// and expelArtificials then pivots its artificial out on the slack
	// column (coefficient −1), declaring a point with a negative basic
	// slack Optimal. Only rows whose rhs sign makes them unsatisfiable
	// are scanned, so the satisfiable hot-path rows (the ball LPs' LE
	// rows with rhs ∈ {0, 1}) cost one comparison each, and satisfiable
	// zero rows still enter the tableau exactly as before — their slack
	// stays basic throughout, so the pivot sequence is unchanged.
	for r, rel := range w.rels {
		rhs := w.rhsIn[r]
		if !((rel == LE && rhs < 0) || (rel == GE && rhs > 0) || (rel == EQ && rhs != 0)) {
			continue
		}
		zero := true
		for _, a := range w.rowArena[r*w.nVars : (r+1)*w.nVars] {
			if a != 0 {
				zero = false
				break
			}
		}
		if zero {
			return Solution{Status: Infeasible}, nil
		}
	}
	w.buildTableau()
	t := &w.t
	sol := Solution{}
	if t.needPhase1 {
		t.setPhase1Objective()
		if err := t.iterate(rule, &sol.Pivots); err != nil {
			return Solution{}, err
		}
		// Phase 1 maximises −Σ artificials, so a strictly negative optimum
		// means some artificial could not be driven to zero: infeasible.
		if t.objValue() < -epsPhase1 {
			sol.Status = Infeasible
			return sol, nil
		}
		if err := t.expelArtificials(); err != nil {
			return Solution{}, err
		}
	}
	t.setPhase2Objective(w.objRow, minimize)
	if err := t.iterate(rule, &sol.Pivots); err != nil {
		if errors.Is(err, errUnbounded) {
			sol.Status = Unbounded
			return sol, nil
		}
		return Solution{}, err
	}
	sol.Status = Optimal
	sol.X = w.primalInto()
	sol.Value = t.objValue()
	if minimize {
		sol.Value = -sol.Value
	}
	sol.dws, sol.dgen, sol.dmin = w, w.gen, minimize
	return sol, nil
}

// buildTableau fills the workspace tableau from the staged rows: the
// same normalisation (nonnegative rhs), slack/artificial layout and
// coefficient signs as the historical newTableau, into reused memory.
func (w *Workspace) buildTableau() {
	n := w.nVars
	m := len(w.rels)
	w.plans = growPlans(w.plans, m)
	nSlack, nArt := 0, 0
	for r := 0; r < m; r++ {
		pl := rowPlan{rel: w.rels[r]}
		if w.rhsIn[r] < 0 {
			pl.flip = true
			switch pl.rel {
			case LE:
				pl.rel = GE
			case GE:
				pl.rel = LE
			}
		}
		switch pl.rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			pl.needsArt = true
			nArt++
		case EQ:
			pl.needsArt = true
			nArt++
		}
		w.plans[r] = pl
	}

	// The initially nonbasic columns fill the slots in column order: the
	// original variables, then the surplus column of each GE row (its
	// artificial is basic). LE slacks and artificials start basic.
	t := &w.t
	t.reset(n, m, nSlack, nArt)
	for j := 0; j < n; j++ {
		t.slotCol[j] = j
	}
	slack := n
	art := t.artStart
	surplus := n
	for r := 0; r < m; r++ {
		row := t.rows[r]
		staged := w.rowArena[r*n : (r+1)*n]
		sign := 1.0
		if w.plans[r].flip {
			sign = -1
		}
		for j, a := range staged {
			row[j] = sign * a
		}
		clear(row[n:])
		t.rhs[r] = sign * w.rhsIn[r]
		switch w.plans[r].rel {
		case LE:
			t.basis[r] = slack
			slack++
		case GE:
			row[surplus] = -1
			t.slotCol[surplus] = slack
			surplus++
			slack++
			t.basis[r] = art
			art++
		case EQ:
			t.basis[r] = art
			art++
		}
	}
}

// primalInto reads the original variables' values into the reused
// solution buffer; the returned slice is valid until the next solve.
func (w *Workspace) primalInto() []float64 {
	t := &w.t
	w.xBuf = growFloats(w.xBuf, t.nVars)
	x := w.xBuf
	clear(x)
	for r, b := range t.basis {
		if b < t.nVars {
			v := t.rhs[r]
			if v < 0 && v > -epsPivot {
				v = 0
			}
			x[b] = v
		}
	}
	return x
}

// dualsFromTableau recovers one multiplier per staged constraint from the
// final tableau's reduced costs — the historical duals() computation,
// deferred until a caller actually asks (no local-LP caller does). It
// must run before the workspace is reused; a stale read panics instead of
// decoding recycled memory.
func (w *Workspace) dualsFromTableau(gen uint64, minimize bool) []float64 {
	if gen != w.gen {
		panic("lp: Solution.Duals read after its workspace was reused")
	}
	t := &w.t
	// Reduced costs by column: a basic column's is 0, and it is exactly
	// +0.0 in phase 2 (see DESIGN.md), as is that of an artificial whose
	// redundant row was dropped.
	obj := make([]float64, t.nCols)
	for k, c := range t.slotCol {
		obj[c] = t.obj[k]
	}
	y := make([]float64, len(w.rels))
	// Slack columns are assigned in constraint order during construction,
	// so the column → original-constraint mapping is replayed from the row
	// plans; rows whose redundancy was detected in phase 1 get dual 0 via
	// their surviving slack column's reduced cost. The multipliers are
	// reported against the rows *as staged*: a row buildTableau flipped to
	// make its rhs nonnegative has the dual of the negated row, so the
	// normalised read is negated back — the convention under which
	// Σ y·rhs equals the objective value.
	slack := t.nVars
	for r := 0; r < len(w.rels); r++ {
		pl := w.plans[r]
		if pl.rel == EQ {
			continue // no slack column
		}
		v := -obj[slack]
		if pl.rel == GE {
			v = -v // slack coefficient is −1
		}
		if pl.flip {
			v = -v
		}
		if minimize {
			v = -v
		}
		y[r] = v
		slack++
	}
	// EQ rows have no slack column, but their artificial column stays in
	// the tableau with its reduced cost maintained through phase 2
	// (artificials are barred from entering, not priced out of t.obj), and
	// that reduced cost is 0 − c_B·B⁻¹·e_r = −y_r — the same identity the
	// slack read uses. Artificial columns are assigned in row order by
	// buildTableau, so the mapping is replayed from the row plans. A row
	// removed as redundant by expelArtificials kept its artificial basic
	// and was never a pivot row, so its column is untouched elsewhere and
	// reads exactly 0 — the correct multiplier for a redundant row.
	// Flipped rows (staged rhs < 0) were negated wholesale, so their
	// original dual is the negation of the normalised one.
	art := t.artStart
	for r := 0; r < len(w.rels); r++ {
		pl := w.plans[r]
		if !pl.needsArt {
			continue
		}
		if pl.rel == EQ {
			v := -obj[art]
			if pl.flip {
				v = -v
			}
			if minimize {
				v = -v
			}
			y[r] = v
		}
		art++
	}
	return y
}

// growFloats returns s with length n, reusing its backing array when the
// capacity suffices. Contents are unspecified; callers overwrite.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growPlans(s []rowPlan, n int) []rowPlan {
	if cap(s) < n {
		return make([]rowPlan, n)
	}
	return s[:n]
}

func growRowHdrs(s [][]float64, n int) [][]float64 {
	if cap(s) < n {
		return make([][]float64, n)
	}
	return s[:n]
}
