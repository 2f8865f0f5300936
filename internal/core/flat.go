package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"maxminlp/internal/hypergraph"
	"maxminlp/internal/lp"
	"maxminlp/internal/mmlp"
	"maxminlp/internal/obs"
)

// This file is the flat-array execution path of the Theorem-3 round
// loops. The map/slice-of-slice bookkeeping of the original
// implementation (per-agent ball maps, per-resource union maps) is
// replaced by the hypergraph CSR index, a radius-R BallIndex computed
// once, and epoch-stamped scratch arrays that are reset in O(|touched|)
// — so the per-agent loop does no map allocation at all. Every loop
// iterates the same sets in the same ascending order as the reference
// code, so all floating-point results are bit-identical to it (and to
// the message-passing replay in internal/dist).

// csrOf returns the incidence index of the graph, building one from the
// instance for graphs that were not constructed via FromInstance.
func csrOf(in *mmlp.Instance, g *hypergraph.Graph) *hypergraph.CSR {
	if c := g.CSR(); c != nil {
		return c
	}
	return hypergraph.NewCSR(in)
}

// localSolver carries the reusable scratch of one worker solving local
// LPs (9) over CSR balls: the lp.Workspace the simplex runs in, the
// epoch-stamped index scratch, and (optionally) an isomorphic-ball
// cache. A steady-state solve performs no allocation at all: constraint
// rows are written directly into workspace memory and the returned
// solution aliases the workspace buffer. It is not safe for concurrent
// use; parallel executors hold one solver per worker.
type localSolver struct {
	csr *hypergraph.CSR
	ws  *lp.Workspace

	// localIdx[v] is the index of agent v inside the current ball, or −1.
	// Only ball entries are ever set, and they are cleared after each
	// solve, so reset cost is O(|ball|).
	localIdx []int32

	// resMark/parMark are epoch stamps deduplicating the I^u and K^u
	// collections without clearing between solves.
	resMark, parMark []int32
	epoch            int32

	resList, parList []int

	// cache enables isomorphic-ball dedup in solveCached; nil disables.
	cache  *solveCache
	keyBuf []byte

	// zeroX backs the x^u = 0 convention for balls with empty K^u; it is
	// allocated zeroed and never written.
	zeroX []float64

	// presolve enables the ball-LP row reductions of reduce(); the keep
	// masks below are valid between enter and leave and are consulted by
	// both canonicalKey and assembleAndSolve, so the fingerprint always
	// describes exactly the LP the simplex would solve.
	presolve         bool
	resKeep, parKeep []bool
	resKept, parKept int

	// Materialised ball-restricted rows for reduce(): entries of row r
	// live in rowIdx/rowCoef[rowOff[r]:rowOff[r+1]], resource rows first.
	rowIdx  []int32
	rowCoef []float64
	rowOff  []int

	// dropCounter, when non-nil, accumulates rows eliminated by reduce()
	// (nil-safe; bound by the session's pool to the obs registry).
	dropCounter *obs.Counter
}

func newLocalSolver(csr *hypergraph.CSR) *localSolver {
	s := &localSolver{ws: lp.NewWorkspace()}
	s.bind(csr)
	return s
}

// bind points the solver at csr — a pooled solver outlives the CSR it
// was built for, since weight updates clone the coefficient arrays and
// topology updates patch the index. Agents and rows only ever join, so
// rebinding only grows the index and stamp arrays with −1 slots (outside
// every ball, never stamped); the LP workspace is kept. A solver already
// bound to csr pays one pointer compare.
func (s *localSolver) bind(csr *hypergraph.CSR) {
	if s.csr == csr {
		return
	}
	s.csr = csr
	s.localIdx = growUnset(s.localIdx, csr.NumAgents())
	s.resMark = growUnset(s.resMark, csr.NumResources())
	s.parMark = growUnset(s.parMark, csr.NumParties())
}

// enter installs the ball's local indexing and collects I^u (resources
// touching the ball) and K^u (parties inside), sorted ascending — the
// same sets in the same order as the reference view-based path.
func (s *localSolver) enter(ball []int32) {
	csr := s.csr
	for idx, v := range ball {
		s.localIdx[v] = int32(idx)
	}
	s.epoch++
	s.resList = s.resList[:0]
	s.parList = s.parList[:0]
	for _, v := range ball {
		for _, i := range csr.AgentResources(int(v)) {
			if s.resMark[i] != s.epoch {
				s.resMark[i] = s.epoch
				s.resList = append(s.resList, int(i))
			}
		}
		for _, k := range csr.AgentParties(int(v)) {
			if s.parMark[k] == s.epoch {
				continue
			}
			s.parMark[k] = s.epoch
			inside := true
			for _, member := range csr.PartyAgents(int(k)) {
				if s.localIdx[member] < 0 {
					inside = false
					break
				}
			}
			if inside {
				s.parList = append(s.parList, int(k))
			}
		}
	}
	sort.Ints(s.resList)
	sort.Ints(s.parList)
	if s.presolve && len(s.parList) > 0 {
		s.reduce()
	}
}

// reduce computes the presolve keep masks over the ball-restricted
// rows of the entered ball: exact duplicates and rows implied by
// another row are dropped before fingerprinting and assembly, so two
// balls whose LPs differ only in redundant structure — the boundary
// stubs of lattice instances, say — collapse onto one cache orbit.
//
// Both reductions are guarded by bitwise coefficient equality, so they
// are exact (the feasible set of the reduced LP is identical to the
// unreduced one, as is ω and the optimal face):
//
//   - a resource row (Σ a_v x_v ≤ 1) whose restricted entries are a
//     subset of another resource row's, with bitwise-equal shared
//     coefficients and strictly positive extras, is implied by the
//     superset row (the extra terms are nonnegative) — the SUBSET is
//     dropped;
//   - a party row (−Σ c_v x_v + ω ≤ 0) whose restricted entries are a
//     superset of another party row's, likewise guarded, is implied by
//     the subset row (the extra −c terms only decrease the left side)
//     — the SUPERSET is dropped;
//   - bitwise-identical rows of the same family keep the first.
//
// Dropping a redundant row never changes the optimum value or the
// feasible set, but it can change the simplex pivot sequence, so
// presolved solves are value-exact rather than bit-identical to
// unpresolved ones whenever a reduction actually fires; on instances
// where nothing fires (generic random weights) the masks are all-keep
// and every byte and bit is unchanged.
func (s *localSolver) reduce() {
	csr := s.csr
	nRes, nPar := len(s.resList), len(s.parList)
	s.rowOff = s.rowOff[:0]
	s.rowIdx = s.rowIdx[:0]
	s.rowCoef = s.rowCoef[:0]
	for _, i := range s.resList {
		s.rowOff = append(s.rowOff, len(s.rowIdx))
		agents, coeffs := csr.ResourceAgents(i), csr.ResourceCoeffs(i)
		for j, a := range agents {
			if idx := s.localIdx[a]; idx >= 0 {
				s.rowIdx = append(s.rowIdx, idx)
				s.rowCoef = append(s.rowCoef, coeffs[j])
			}
		}
	}
	for _, k := range s.parList {
		s.rowOff = append(s.rowOff, len(s.rowIdx))
		agents, coeffs := csr.PartyAgents(k), csr.PartyCoeffs(k)
		for j, a := range agents {
			s.rowIdx = append(s.rowIdx, s.localIdx[a])
			s.rowCoef = append(s.rowCoef, -coeffs[j])
		}
	}
	s.rowOff = append(s.rowOff, len(s.rowIdx))

	if cap(s.resKeep) < nRes {
		s.resKeep = make([]bool, nRes)
	}
	s.resKeep = s.resKeep[:nRes]
	if cap(s.parKeep) < nPar {
		s.parKeep = make([]bool, nPar)
	}
	s.parKeep = s.parKeep[:nPar]
	for r := range s.resKeep {
		s.resKeep[r] = true
	}
	for r := range s.parKeep {
		s.parKeep[r] = true
	}

	// Resource rows: drop duplicates (keep the first) and strict
	// subsets. A drop justified by a row that is itself later dropped
	// stays justified: duplicate chains keep one representative and
	// containment chains keep their maximal rows.
	for r := 0; r < nRes; r++ {
		if !s.resKeep[r] {
			continue
		}
		for q := 0; q < nRes; q++ {
			if q == r {
				continue
			}
			sub, strict := s.rowSubset(r, q, true)
			if sub && (strict || q < r) {
				s.resKeep[r] = false
				break
			}
		}
	}
	// Party rows: drop duplicates (keep the first) and strict
	// supersets; containment chains keep their minimal rows. Every
	// party row carries the same implicit +1·ω entry, so comparing the
	// agent entries alone compares the full rows.
	for r := 0; r < nPar; r++ {
		if !s.parKeep[r] {
			continue
		}
		for q := 0; q < nPar; q++ {
			if q == r {
				continue
			}
			sub, strict := s.rowSubset(nRes+q, nRes+r, false)
			if sub && (strict || q < r) {
				s.parKeep[r] = false
				break
			}
		}
	}
	s.resKept, s.parKept = 0, 0
	for _, k := range s.resKeep {
		if k {
			s.resKept++
		}
	}
	for _, k := range s.parKeep {
		if k {
			s.parKept++
		}
	}
	s.dropCounter.Add(int64(nRes - s.resKept + nPar - s.parKept))
}

// rowSubset reports whether materialised row a's entries form a subset
// of row b's with bitwise-equal coefficients on the shared support, and
// whether the containment is strict. Entries are ascending in local
// index (CSR agent lists and balls are sorted). wantPos constrains the
// sign of b's extra coefficients: positive for resource rows (extras
// can only tighten b), negative for party rows (stored as −c).
func (s *localSolver) rowSubset(a, b int, wantPos bool) (subset, strict bool) {
	ai, ae := s.rowOff[a], s.rowOff[a+1]
	bi, be := s.rowOff[b], s.rowOff[b+1]
	for ai < ae {
		if bi >= be {
			return false, false
		}
		switch {
		case s.rowIdx[bi] < s.rowIdx[ai]:
			c := s.rowCoef[bi]
			if wantPos != (c > 0) {
				return false, false
			}
			strict = true
			bi++
		case s.rowIdx[bi] == s.rowIdx[ai]:
			if s.rowCoef[bi] != s.rowCoef[ai] {
				return false, false
			}
			ai++
			bi++
		default:
			return false, false
		}
	}
	for ; bi < be; bi++ {
		if c := s.rowCoef[bi]; wantPos != (c > 0) {
			return false, false
		}
		strict = true
	}
	return true, strict
}

// leave clears the local indexing installed by enter, in O(|ball|).
func (s *localSolver) leave(ball []int32) {
	for _, v := range ball {
		s.localIdx[v] = -1
	}
}

// zeros returns an all-zero slice of length n (the x^u for empty K^u).
// The buffer is shared across calls and must never be written.
func (s *localSolver) zeros(n int) []float64 {
	if cap(s.zeroX) < n {
		s.zeroX = make([]float64, n)
	}
	return s.zeroX[:n]
}

// solve solves the local LP (9) for the ball V^u (sorted ascending): the
// flat-array equivalent of solveLocalView over a FullView. The LP is
// assembled from the same sorted index lists and the same coefficient
// order into workspace memory, so the simplex pivot sequence — and hence
// the solution — is identical to the reference path. The returned slice
// aliases the workspace and is valid until the next solve on this
// solver; callers that keep it must copy.
func (s *localSolver) solve(ball []int32) ([]float64, float64, int, error) {
	s.enter(ball)
	defer s.leave(ball)
	if len(s.parList) == 0 {
		// ω^u = min over the empty K^u is +∞; x^u = 0 by convention.
		return s.zeros(len(ball)), math.Inf(1), 0, nil
	}
	return s.assembleAndSolve(ball)
}

// solveCached is solve with isomorphic-ball dedup: the ball's canonical
// fingerprint is looked up in the cache and, after an exact key match,
// the stored solution is returned without touching the simplex. hit
// reports whether the simplex was skipped. Requires s.cache != nil.
func (s *localSolver) solveCached(ball []int32) (x []float64, omega float64, pivots int, hit bool, err error) {
	s.enter(ball)
	defer s.leave(ball)
	if len(s.parList) == 0 {
		return s.zeros(len(ball)), math.Inf(1), 0, true, nil
	}
	key := s.canonicalKey(ball)
	hash := fnv64a(key)
	if e := s.cache.lookup(hash, key); e != nil {
		s.cache.addHits(1)
		return e.x, e.omega, e.pivots, true, nil
	}
	x, omega, pivots, err = s.assembleAndSolve(ball)
	if err != nil {
		return nil, 0, 0, false, err
	}
	s.cache.insert(hash, key, x, omega, pivots)
	return x, omega, pivots, false, nil
}

// fingerprint returns an owned copy of the ball's canonical key and its
// hash, or trivial = true for balls with empty K^u (no LP to solve).
// Used by the parallel executor to group agents before solving.
func (s *localSolver) fingerprint(ball []int32) (key []byte, hash uint64, trivial bool) {
	s.enter(ball)
	defer s.leave(ball)
	if len(s.parList) == 0 {
		return nil, 0, true
	}
	k := s.canonicalKey(ball)
	return append([]byte(nil), k...), fnv64a(k), false
}

// canonicalKey encodes the ball's local LP (9) in ball-relative terms:
// ball size, then each constraint row of I^u and K^u as its (local
// column, exact coefficient bits) entries in assembly order. Agents
// whose balls encode identically assemble element-for-element identical
// LPs, so one solve serves them all. With presolve enabled the key
// encodes the reduced rows — exactly the LP assembleAndSolve would
// stage — so the key still determines the stored solution bit-for-bit,
// and presolved and unpresolved runs can safely share one cache (their
// keys coincide precisely when no reduction fires). The returned slice
// aliases s.keyBuf and is valid until the next canonicalKey call.
func (s *localSolver) canonicalKey(ball []int32) []byte {
	csr := s.csr
	nRes, nPar := len(s.resList), len(s.parList)
	if s.presolve {
		nRes, nPar = s.resKept, s.parKept
	}
	b := appendKeyHeader(s.keyBuf[:0], len(ball), nRes)
	for ri, i := range s.resList {
		if s.presolve && !s.resKeep[ri] {
			continue
		}
		agents, coeffs := csr.ResourceAgents(i), csr.ResourceCoeffs(i)
		for j, a := range agents {
			if idx := s.localIdx[a]; idx >= 0 {
				b = appendKeyEntry(b, idx, coeffs[j])
			}
		}
		b = appendKeyRowEnd(b)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(nPar))
	for pi, k := range s.parList {
		if s.presolve && !s.parKeep[pi] {
			continue
		}
		agents, coeffs := csr.PartyAgents(k), csr.PartyCoeffs(k)
		for j, a := range agents {
			b = appendKeyEntry(b, s.localIdx[a], coeffs[j])
		}
		b = appendKeyRowEnd(b)
	}
	s.keyBuf = b
	return b
}

// assembleAndSolve writes the constraint rows of (9) directly into the
// workspace and runs the simplex. Callers must have entered the ball and
// checked K^u ≠ ∅.
func (s *localSolver) assembleAndSolve(ball []int32) ([]float64, float64, int, error) {
	csr := s.csr
	nLoc := len(ball)
	ws := s.ws
	ws.Begin(nLoc + 1)
	ws.Obj()[nLoc] = 1
	for ri, i := range s.resList {
		if s.presolve && !s.resKeep[ri] {
			continue
		}
		row := ws.AddRow(lp.LE, 1)
		agents, coeffs := csr.ResourceAgents(i), csr.ResourceCoeffs(i)
		for j, a := range agents {
			if idx := s.localIdx[a]; idx >= 0 {
				row[idx] = coeffs[j]
			}
		}
	}
	for pi, k := range s.parList {
		if s.presolve && !s.parKeep[pi] {
			continue
		}
		row := ws.AddRow(lp.LE, 0)
		agents, coeffs := csr.PartyAgents(k), csr.PartyCoeffs(k)
		for j, a := range agents {
			row[s.localIdx[a]] = -coeffs[j]
		}
		row[nLoc] = 1
	}
	sol, err := ws.SolveStaged(false, lp.DantzigThenBland)
	if err != nil {
		return nil, 0, 0, err
	}
	if sol.Status != lp.Optimal {
		return nil, 0, 0, fmt.Errorf("local LP status %v", sol.Status)
	}
	return sol.X[:nLoc], sol.Value, sol.Pivots, nil
}

// CertScratch is the reusable state of certificate computation: one
// epoch stamp and one hit count per agent, with which each row's union
// U_i and intersection S_k are counted rather than materialised. A
// Solver session keeps one for its lifetime, growing it as agents join,
// so no query or topology patch allocates it again. Not safe for
// concurrent use.
type CertScratch struct {
	mark  []int32
	count []int32
	epoch int32

	// resMark/parMark stamp the rows a session's topology patch reaches
	// (Solver.patchStructural).
	resMark, parMark []int32
}

// NewCertScratch returns a scratch sized for the instance behind csr.
func NewCertScratch(csr *hypergraph.CSR) *CertScratch {
	scr := &CertScratch{}
	scr.grow(csr.NumAgents())
	return scr
}

// grow extends the scratch to n agents; topology updates only ever add
// agents, and a new slot starts unstamped.
func (scr *CertScratch) grow(n int) {
	scr.mark = growUnset(scr.mark, n)
	if d := n - len(scr.count); d > 0 {
		scr.count = append(scr.count, make([]int32, d)...)
	}
}

// next starts a fresh stamp epoch, clearing the stamps when the epoch
// counter would wrap.
func (scr *CertScratch) next() int32 {
	if scr.epoch == math.MaxInt32 {
		for _, xs := range [][]int32{scr.mark, scr.resMark, scr.parMark} {
			for j := range xs {
				xs[j] = -1
			}
		}
		scr.epoch = 0
	}
	scr.epoch++
	return scr.epoch
}

// growUnset extends xs to n slots, each new slot −1: the unset value of
// both the epoch stamps (epochs start at 1) and localSolver.localIdx.
func growUnset(xs []int32, n int) []int32 {
	for len(xs) < n {
		xs = append(xs, -1)
	}
	return xs
}

// resourceRow returns n_i/N_i and N_i/n_i for resource i, where N_i =
// |U_i| = |∪_{j∈V_i} B(j)| and n_i = min_{j∈V_i} |B(j)| (Figure 2). A
// dead resource (its whole support left through topology updates)
// constrains nothing and no live agent reads its ratio: it returns
// (0, 1), 1 being neutral in the bound's max fold.
func (scr *CertScratch) resourceRow(csr *hypergraph.CSR, bi *hypergraph.BallIndex, i int) (ratio, inv float64) {
	if csr.ResourceDegree(i) == 0 {
		return 0, 1
	}
	e := scr.next()
	Ni, ni := 0, math.MaxInt
	for _, j := range csr.ResourceAgents(i) {
		ball := bi.Ball(int(j))
		for _, w := range ball {
			if scr.mark[w] != e {
				scr.mark[w] = e
				Ni++
			}
		}
		ni = min(ni, len(ball))
	}
	return float64(ni) / float64(Ni), float64(Ni) / float64(ni)
}

// partyRow returns M_k/m_k for party k, where m_k = |S_k| = |∩_{j∈V_k}
// B(j)| and M_k = max_{j∈V_k} |B(j)|. m_k is counted with stamps: the
// first member's ball is stamped with count 1, every later member's ball
// raises the count of the stamped agents it contains, and S_k is the set
// whose count reaches |V_k| (members are distinct, balls duplicate-free).
// +Inf when S_k is empty — possible only at radius 0 with |V_k| > 1, as
// for R ≥ 1 the members of a hyperedge are mutually adjacent, so S_k ⊇
// V_k. A dead party demands nothing and returns the neutral 1.
func (scr *CertScratch) partyRow(csr *hypergraph.CSR, bi *hypergraph.BallIndex, k int) float64 {
	members := csr.PartyAgents(k)
	if len(members) == 0 {
		return 1
	}
	e := scr.next()
	first := bi.Ball(int(members[0]))
	for _, w := range first {
		scr.mark[w] = e
		scr.count[w] = 1
	}
	Mk := len(first)
	for _, j := range members[1:] {
		ball := bi.Ball(int(j))
		Mk = max(Mk, len(ball))
		for _, w := range ball {
			if scr.mark[w] == e {
				scr.count[w]++
			}
		}
	}
	mk := 0
	for _, w := range first {
		if scr.count[w] == int32(len(members)) {
			mk++
		}
	}
	if mk == 0 {
		return math.Inf(1)
	}
	return float64(Mk) / float64(mk)
}

// certRows is the Theorem-3 certificate of one radius kept per row, so
// a topology patch can re-derive just the rows whose balls it moved:
// every row depends only on its own support and its members' balls.
type certRows struct {
	resRatio []float64 // n_i/N_i per resource (β reads it)
	resInv   []float64 // N_i/n_i per resource
	parRatio []float64 // M_k/m_k per party
}

// newCertRows computes every row from scratch.
func newCertRows(csr *hypergraph.CSR, bi *hypergraph.BallIndex, scr *CertScratch) *certRows {
	c := &certRows{}
	c.grow(csr.NumResources(), csr.NumParties())
	for i := range c.resRatio {
		c.resRatio[i], c.resInv[i] = scr.resourceRow(csr, bi, i)
	}
	for k := range c.parRatio {
		c.parRatio[k] = scr.partyRow(csr, bi, k)
	}
	return c
}

// grow extends the rows to nRes resources and nPar parties; the new
// rows hold zeros until their caller computes them.
func (c *certRows) grow(nRes, nPar int) {
	if d := nRes - len(c.resRatio); d > 0 {
		c.resRatio = append(c.resRatio, make([]float64, d)...)
		c.resInv = append(c.resInv, make([]float64, d)...)
	}
	if d := nPar - len(c.parRatio); d > 0 {
		c.parRatio = append(c.parRatio, make([]float64, d)...)
	}
}

// bounds folds the rows into (max_k M_k/m_k, max_i N_i/n_i), each at
// least 1. max is exact and order-independent, so the fold of rows kept
// across patches is bit-identical to a cold computation.
func (c *certRows) bounds() (partyBound, resourceBound float64) {
	partyBound, resourceBound = 1, 1
	for _, r := range c.parRatio {
		partyBound = max(partyBound, r)
	}
	for _, r := range c.resInv {
		resourceBound = max(resourceBound, r)
	}
	return partyBound, resourceBound
}

// betaOf returns β_j = min(1, min_{i∈I_j} n_i/N_i), the combination
// weight of equation (10).
func betaOf(csr *hypergraph.CSR, resRatio []float64, j int) float64 {
	beta := 1.0
	for _, i := range csr.AgentResources(j) {
		beta = min(beta, resRatio[i])
	}
	return beta
}

// CertificateWith computes the Theorem-3 certificate (max_k M_k/m_k,
// max_i N_i/n_i) over a prebuilt ball index with reusable scratch.
// Results are bit-identical to Certificate and to the Solver session's
// retained bounds, which fold the same per-row values.
func CertificateWith(csr *hypergraph.CSR, bi *hypergraph.BallIndex, scr *CertScratch) (partyBound, resourceBound float64) {
	return newCertRows(csr, bi, scr).bounds()
}

// SafeFlat is Safe over a prebuilt CSR index: the same min_{i∈Iv}
// 1/(a_iv·|Vi|) computed from the flat incidence arrays, with no binary
// searches or row lookups. Exported for the benchmarks and the command
// line; Safe remains the self-contained reference.
func SafeFlat(csr *hypergraph.CSR) []float64 {
	x := make([]float64, csr.NumAgents())
	for v := range x {
		best := math.Inf(1)
		ids, coeffs := csr.AgentResources(v), csr.AgentResourceCoeffs(v)
		for j, i := range ids {
			cap := 1 / (coeffs[j] * float64(csr.ResourceDegree(int(i))))
			if cap < best {
				best = cap
			}
		}
		if math.IsInf(best, 1) {
			// Iv = ∅ violates the paper's assumptions; 0 keeps feasibility.
			best = 0
		}
		x[v] = best
	}
	return x
}
