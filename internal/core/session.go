package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"maxminlp/internal/hypergraph"
	"maxminlp/internal/mmlp"
	"maxminlp/internal/obs"
)

// Solver is a long-lived solving session over one instance: it owns the
// CSR incidence index, builds the radius-R ball index of each queried
// radius once and retains it, shares one isomorphic-ball solve cache
// across all queries, and pools the lp.Workspace-backed local solvers —
// so repeated queries pay none of the per-call setup the one-shot free
// functions pay. Safe, LocalAverage, Adaptive and Certificate return
// results bit-identical to the corresponding free functions.
//
// On top of the amortisation, the session supports incremental re-solve
// along both update axes. UpdateWeights changes coefficients (never
// topology) and invalidates only the per-agent local LPs whose radius-R
// balls can see a touched row; the next LocalAverage call re-solves just
// those agents and replays the combination (10) for the affected
// coordinates. UpdateTopology changes structure — agents, resources,
// parties and support entries joining or leaving — by patching the CSR,
// graph and retained ball indexes in place of rebuilding them, and
// invalidates exactly the union of balls around the touched vertices.
// Both are bit-identical to a cold solve of the mutated instance.
//
// All methods are safe for concurrent use: queries and updates serialise
// on one mutex (each query may still fan its LP solves across Workers
// goroutines internally). The ball-structure quantities — ball indexes,
// certificates, β weights — survive weight updates unchanged, because
// weight updates cannot change the communication hypergraph; topology
// updates re-derive only the rows and β weights their patched balls
// reach.
type Solver struct {
	mu sync.Mutex

	in  *mmlp.Instance
	g   *hypergraph.Graph
	csr *hypergraph.CSR
	// csrOwned marks that csr's coefficient arrays are a private clone
	// (copy-on-write, done by the first UpdateWeights after csr was last
	// handed out) and may be patched in place.
	csrOwned bool

	workers int
	// presolve enables ball-LP row reduction before fingerprinting (see
	// AverageOptions.Presolve); toggled by SetPresolve.
	presolve bool
	cache    *SolveCache
	pool     *sync.Pool // of *localSolver, rebound to csr on every Get
	scratch  *CertScratch
	// solverBuilds counts the local solvers the pool has constructed.
	solverBuilds atomic.Int64

	balls  map[int]*hypergraph.BallIndex
	states map[int]*radiusState

	stats SolverStats

	// obsM, when non-nil, receives phase latencies, cache outcomes and
	// invalidation counts from every query and update (see SetObs). Nil —
	// the default — keeps the solve paths on their uninstrumented costs.
	obsM *obs.SolveMetrics
	// pubEntries and pubKeyBytes are this session's share of obsM's
	// cache gauges, which sum over every session sharing the bundle.
	pubEntries, pubKeyBytes int
}

// SolverStats counts the work a session has performed; the serving
// daemon exposes them, and the steady-state acceptance check — zero
// CSR/BallIndex rebuilds per query once warm — reads them.
type SolverStats struct {
	// CSRBuilds and BallIndexBuilds count expensive structure builds;
	// both stay flat across steady-state queries and weight updates.
	CSRBuilds       int
	BallIndexBuilds int
	// FullSolves counts cold LocalAverage passes (all agents),
	// IncrementalSolves the delta passes, and WarmHits the calls answered
	// entirely from retained state.
	FullSolves        int
	IncrementalSolves int
	WarmHits          int
	// AgentsResolved is the total number of per-agent local LPs
	// re-examined by incremental passes (re-fingerprinted; most are then
	// served from the cache).
	AgentsResolved int
	// WeightUpdates counts UpdateWeights calls and DeltasApplied the
	// individual coefficient changes.
	WeightUpdates int
	DeltasApplied int
	// TopoUpdates counts UpdateTopology calls, TopoOpsApplied the
	// individual structural ops, AgentsAdded/AgentsRemoved the agents
	// that joined and left, and BallsPatched the per-radius balls the
	// patches recomputed (the structural invalidation footprint; every
	// other ball was carried over untouched).
	TopoUpdates    int
	TopoOpsApplied int
	AgentsAdded    int
	AgentsRemoved  int
	BallsPatched   int
	// StructuralRows counts the resource and party rows whose
	// certificate quantities the patches re-derived, summed over radii:
	// the rows named by a patch plus the rows incident to a patched
	// ball. It depends on the patch's neighbourhood, not on n.
	StructuralRows int
	// CacheEntries and CacheHits snapshot the shared solve cache.
	CacheEntries int
	CacheHits    int
	// Presolve reports whether ball-LP presolve is enabled for this
	// session (see SetPresolve), so the dedup-hit delta it produces can
	// be attributed when scraping stats.
	Presolve bool
}

// radiusState is everything the session retains about one radius. The
// structural part (per-row certificate quantities and their bounds, β,
// ball sizes) depends only on the hypergraph and survives weight
// updates; the solve part (per-agent entries, running sums, the combined
// solution) is what UpdateWeights invalidates agent-by-agent.
type radiusState struct {
	cert          *certRows
	partyBound    float64
	resourceBound float64
	beta          []float64

	// Solve state; nil res until the first LocalAverage at this radius.
	res     *AverageResult
	entries []*cacheEntry // per agent; nil = trivial K^u = ∅ ball
	sums    []float64

	dirty  []bool
	nDirty int

	// pendingBeta lists the coordinates whose β structural updates
	// changed: the next solve replays (10) for them from the retained
	// sums, beside the coordinates the dirty balls cover.
	pendingBeta []int32
	// pendingAffected accumulates, across structural updates, the agents
	// whose running sums must be replayed because a (possibly former)
	// member of their ball changed — including members that left, which
	// the next solve could not discover from the patched index alone.
	pendingAffected []int32
}

// WeightKind selects which coefficient family a WeightDelta touches.
type WeightKind uint8

const (
	// ResourceWeight updates a_iv of resource Row and agent Agent.
	ResourceWeight WeightKind = iota
	// PartyWeight updates c_kv of party Row and agent Agent.
	PartyWeight
)

// WeightDelta is one coefficient change applied by Solver.UpdateWeights.
// The (Row, Agent) entry must already exist — weight updates change
// values, never supports — and Coeff must be positive and finite.
type WeightDelta struct {
	Kind  WeightKind
	Row   int
	Agent int
	Coeff float64
}

// NewSolver builds a session from an instance: the communication
// hypergraph and CSR index are constructed once and owned by the
// session.
func NewSolver(in *mmlp.Instance, opt hypergraph.Options) *Solver {
	s := NewSolverFromGraph(in, hypergraph.FromInstance(in, opt))
	return s
}

// NewSolverFromGraph builds a session over a prebuilt communication
// hypergraph (reusing its CSR index when it has one). The graph must
// belong to the instance; the session treats both as its own from here
// on.
func NewSolverFromGraph(in *mmlp.Instance, g *hypergraph.Graph) *Solver {
	s := &Solver{
		in:      in,
		g:       g,
		csr:     csrOf(in, g),
		workers: runtime.GOMAXPROCS(0),
		cache:   &SolveCache{c: newSessionCache()},
		balls:   make(map[int]*hypergraph.BallIndex),
		states:  make(map[int]*radiusState),
	}
	s.stats.CSRBuilds = 1
	s.scratch = NewCertScratch(s.csr)
	s.resetPool()
	return s
}

// resetPool replaces the pool of local solvers, binding new ones to the
// current LP metrics and presolve setting; called at construction, when
// SetObs changes the metrics binding and when SetPresolve toggles. A
// change of csr — copy-on-write after a hand-out, or a topology patch —
// keeps the pool: getSolver rebinds each solver it takes out.
func (s *Solver) resetPool() {
	csr, lpm := s.csr, s.obsM.LPBundle()
	presolve, drops := s.presolve, s.obsM.PresolveDroppedCounter()
	s.pool = &sync.Pool{New: func() any {
		s.solverBuilds.Add(1)
		ls := newLocalSolver(csr)
		ls.ws.SetMetrics(lpm)
		ls.presolve = presolve
		ls.dropCounter = drops
		return ls
	}}
}

// getSolver takes a local solver out of the pool, bound to csr (the
// session's current index, read by the caller under s.mu).
func (s *Solver) getSolver(csr *hypergraph.CSR) *localSolver {
	ls := s.pool.Get().(*localSolver)
	ls.bind(csr)
	return ls
}

// SetObs attaches (or, with nil, detaches) solve-pipeline metrics: phase
// latencies, cache hit/miss counts, invalidated-ball counts, the cache
// footprint gauges and the LP workspace accounting of the pooled
// solvers. Detaching withdraws the session's share of the gauges, so a
// server detaches a session it discards. Metrics never change any
// output bit; disabled (the default) they cost nothing on the solve
// paths.
func (s *Solver) SetObs(m *obs.SolveMetrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.obsM; old != nil {
		old.CacheEntries.Add(-float64(s.pubEntries))
		old.CacheKeyBytes.Add(-float64(s.pubKeyBytes))
	}
	s.pubEntries, s.pubKeyBytes = 0, 0
	s.obsM = m
	s.resetPool()
	s.publishCache()
}

// publishCache moves the session's share of the cache gauges to the
// cache's current footprint.
func (s *Solver) publishCache() {
	m := s.obsM
	if m == nil {
		return
	}
	n, kb, _ := s.cache.c.counts()
	if n != s.pubEntries || kb != s.pubKeyBytes {
		m.CacheEntries.Add(float64(n - s.pubEntries))
		m.CacheKeyBytes.Add(float64(kb - s.pubKeyBytes))
		s.pubEntries, s.pubKeyBytes = n, kb
	}
}

// SetPresolve enables or disables ball-LP presolve for all later
// queries (see AverageOptions.Presolve for the exactness contract).
// Toggling it discards the retained per-radius solve state — results
// solved under one setting are never served under the other — but keeps
// every structural quantity (CSR, ball indexes, certificates, β). The
// discarded balls release their cache entries; cache keys encode the
// reduced form actually solved, so an entry still held elsewhere only
// ever matches LPs with the identical reduced form and is shared safely.
func (s *Solver) SetPresolve(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.presolve == on {
		return
	}
	s.presolve = on
	s.resetPool()
	for _, st := range s.states {
		s.cache.c.release(st.entries)
		st.res = nil
		st.entries = nil
		st.sums = nil
		st.dirty = nil
		st.nDirty = 0
		st.pendingBeta = nil
		st.pendingAffected = nil
	}
	s.publishCache()
}

// Presolve reports whether ball-LP presolve is enabled.
func (s *Solver) Presolve() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.presolve
}

// SetWorkers sets the number of goroutines queries may fan LP solves
// across; w ≤ 0 selects GOMAXPROCS. The worker count never changes any
// output bit.
func (s *Solver) SetWorkers(w int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	s.workers = w
}

// Workers reports the effective worker count queries fan LP solves
// across.
func (s *Solver) Workers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers
}

// Instance returns the current instance — the constructor's instance
// with every applied weight and topology update folded in.
func (s *Solver) Instance() *mmlp.Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.in
}

// Graph returns the communication hypergraph the session solves over,
// with its CSR carrying the current coefficients. The returned value is
// an immutable snapshot of the structure at call time: later weight and
// topology updates never show through it.
func (s *Solver) Graph() *hypergraph.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.currentGraph()
}

// Snapshot returns the session's current instance and hypergraph as one
// consistent pair — unlike separate Instance and Graph calls, no update
// can interleave between the two. Both values are immutable snapshots,
// and the graph's CSR holds the instance's coefficients.
func (s *Solver) Snapshot() (*mmlp.Instance, *hypergraph.Graph) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.in, s.currentGraph()
}

// currentGraph returns s.g rebound to the current CSR. A weight update
// patches a private clone of the CSR, leaving s.g's CSR at the
// coefficients of the last hand-out; the rebind keeps the adjacency (a
// PatchTopo that touches no vertex) and hands the clone out, so the next
// weight update must clone again before patching in place. Callers hold
// s.mu.
func (s *Solver) currentGraph() *hypergraph.Graph {
	if c := s.g.CSR(); c != nil && c != s.csr {
		s.g = s.g.PatchTopo(s.csr, nil)
		s.csrOwned = false
	}
	return s.g
}

// Cache returns the session's shared solve cache. It holds exactly the
// entries the retained balls of every radius reference, plus entries
// that other callers (ball solvers, LocalAverageOpt) stored since the
// last update: the next UpdateWeights or UpdateTopology drops those
// unless a ball has taken them up meanwhile.
func (s *Solver) Cache() *SolveCache { return s.cache }

// NewBallSolver returns a view-based ball-LP solver backed by the
// session's shared cache — the hook the distributed engines use so every
// node's redundant re-solves dedup against the session (and each other).
// Each returned solver must stay on one goroutine; the cache itself is
// internally synchronised. Entries the solver stores that no session
// ball takes up are dropped at the session's next update.
func (s *Solver) NewBallSolver() *BallSolver {
	return NewBallSolverWithCache(s.cache)
}

// BallIndex returns the session's retained radius-r ball index, building
// it on first use. The index is immutable; concurrent readers (the
// distributed engines) may share it freely. Note that a topology update
// replaces it — holders that must stay consistent with a specific graph
// snapshot should use BallIndexIfCurrent.
func (s *Solver) BallIndex(radius int) *hypergraph.BallIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ballIndex(radius)
}

// BallIndexIfCurrent returns the retained radius-r ball index if the
// session still solves over exactly the graph snapshot g, or nil if a
// topology update has replaced it (or g belongs to another session).
// The distributed engines use it so a run keeps the topology it
// snapshotted at Network construction: when the session has moved on,
// they fall back to record-derived balls and stay bit-identical to a
// cold network over the snapshot instance.
func (s *Solver) BallIndexIfCurrent(radius int, g *hypergraph.Graph) *hypergraph.BallIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.g != g {
		return nil
	}
	return s.ballIndex(radius)
}

// Stats returns a snapshot of the session counters.
func (s *Solver) Stats() SolverStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.CacheEntries = s.cache.DistinctSolves()
	st.CacheHits = s.cache.Hits()
	st.Presolve = s.presolve
	return st
}

func (s *Solver) ballIndex(radius int) *hypergraph.BallIndex {
	bi, ok := s.balls[radius]
	if !ok {
		bi = s.g.BallIndex(radius, s.workers)
		s.balls[radius] = bi
		s.stats.BallIndexBuilds++
	}
	return bi
}

// state returns the radius state, creating it — with the structural
// certificate quantities computed once — on first use.
func (s *Solver) state(radius int) *radiusState {
	st, ok := s.states[radius]
	if ok {
		return st
	}
	bi := s.ballIndex(radius)
	st = &radiusState{}
	s.computeStructural(st, bi)
	s.states[radius] = st
	return st
}

// computeStructural fills the ball-structure quantities of one radius
// state — the per-row certificate, its bounds and β — from the current
// csr and ball index, at state creation. Topology updates, the only
// mutation that can change them, re-derive just the rows they reach
// (patchStructural).
func (s *Solver) computeStructural(st *radiusState, bi *hypergraph.BallIndex) {
	csr := s.csr
	st.cert = newCertRows(csr, bi, s.scratch)
	st.partyBound, st.resourceBound = st.cert.bounds()
	n := csr.NumAgents()
	st.beta = make([]float64, n)
	for j := 0; j < n; j++ {
		st.beta[j] = betaOf(csr, st.cert.resRatio, j)
	}
}

// patchStructural brings one radius state's structural quantities up to
// date after a topology patch, re-deriving only what the patch can have
// moved. A resource row's n_i/N_i and a party row's M_k/m_k depend on
// the row's support and its members' balls alone, so only these rows
// can change: the rows the diff names (a new row among them, its support
// having changed from empty) and the rows incident to an agent in dirty
// — the patched balls, a superset of the balls that changed. β_j depends on I_j and its rows' ratios, so it is
// recomputed for the members of the re-derived resources and the touched
// agents (a superset of the agents whose I_j changed, new agents
// included). The bounds are refolded over the per-row values; max is
// exact and order-independent, so the result is bit-identical to a cold
// computation. It returns the agents whose β changed.
func (s *Solver) patchStructural(st *radiusState, bi *hypergraph.BallIndex, d *mmlp.TopoDiff, dirty []int32) (betaChanged []int32) {
	csr, scr, c := s.csr, s.scratch, st.cert
	c.grow(csr.NumResources(), csr.NumParties())
	scr.resMark = growUnset(scr.resMark, csr.NumResources())
	scr.parMark = growUnset(scr.parMark, csr.NumParties())
	e := scr.next()
	var resRows, parRows []int32
	addRes := func(i int) {
		if scr.resMark[i] != e {
			scr.resMark[i] = e
			resRows = append(resRows, int32(i))
		}
	}
	addPar := func(k int) {
		if scr.parMark[k] != e {
			scr.parMark[k] = e
			parRows = append(parRows, int32(k))
		}
	}
	for _, i := range d.ResRows {
		addRes(i)
	}
	for _, k := range d.ParRows {
		addPar(k)
	}
	for _, v := range dirty {
		for _, i := range csr.AgentResources(int(v)) {
			addRes(int(i))
		}
		for _, k := range csr.AgentParties(int(v)) {
			addPar(int(k))
		}
	}
	for _, i := range resRows {
		c.resRatio[i], c.resInv[i] = scr.resourceRow(csr, bi, int(i))
	}
	for _, k := range parRows {
		c.parRatio[k] = scr.partyRow(csr, bi, int(k))
	}
	s.stats.StructuralRows += len(resRows) + len(parRows)
	st.partyBound, st.resourceBound = c.bounds()

	oldN := len(st.beta)
	if grown := csr.NumAgents() - oldN; grown > 0 {
		st.beta = append(st.beta, make([]float64, grown)...)
	}
	e = scr.next()
	visit := func(j int) {
		if scr.mark[j] == e {
			return
		}
		scr.mark[j] = e
		b := betaOf(csr, c.resRatio, j)
		if j >= oldN || b != st.beta[j] {
			st.beta[j] = b
			betaChanged = append(betaChanged, int32(j))
		}
	}
	for _, i := range resRows {
		for _, j := range csr.ResourceAgents(int(i)) {
			visit(int(j))
		}
	}
	for _, t := range d.Touched {
		visit(t)
	}
	return betaChanged
}

// Safe computes the safe solution of equation (2) over the session's
// current weights; bit-identical to the free Safe/SafeFlat.
func (s *Solver) Safe() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SafeFlat(s.csr)
}

// SafeRange computes the safe solution for agents [lo, hi) only — the
// partition-scoped view a cluster worker serves for its owned slice.
// Element for element it equals Safe()[lo:hi] bitwise: the safe value
// of an agent depends only on its own resource rows, so a partition can
// be computed without touching the rest of the instance.
func (s *Solver) SafeRange(lo, hi int) ([]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.csr.NumAgents()
	if lo < 0 || hi < lo || hi > n {
		return nil, fmt.Errorf("core: SafeRange [%d,%d) out of range [0,%d)", lo, hi, n)
	}
	x := make([]float64, hi-lo)
	for v := lo; v < hi; v++ {
		best := math.Inf(1)
		ids, coeffs := s.csr.AgentResources(v), s.csr.AgentResourceCoeffs(v)
		for j, i := range ids {
			cap := 1 / (coeffs[j] * float64(s.csr.ResourceDegree(int(i))))
			if cap < best {
				best = cap
			}
		}
		if math.IsInf(best, 1) {
			// Iv = ∅ violates the paper's assumptions; 0 keeps feasibility.
			best = 0
		}
		x[v-lo] = best
	}
	return x, nil
}

// Certificate returns the Theorem-3 certificate at the given radius.
// The bounds are pure ball structure, so the session computes them once
// per radius and serves every later call — across any number of weight
// updates — from retained state. Bit-identical to the free Certificate.
func (s *Solver) Certificate(radius int) (partyBound, resourceBound float64, err error) {
	if radius < 0 {
		return 0, 0, fmt.Errorf("core: radius must be ≥ 0, got %d", radius)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state(radius)
	return st.partyBound, st.resourceBound, nil
}

// LocalAverage runs the Theorem-3 algorithm at the given radius. The
// first call per radius is a full solve; a repeat call with no
// intervening weight update is answered from retained state; a call
// after UpdateWeights re-solves only the invalidated agents. All three
// paths return bit-identical X, Beta, BallSize, LocalOmega and
// certificate bounds (the LP accounting fields describe the work of the
// pass that produced the result). The result is a private copy; callers
// may keep it across later session calls.
func (s *Solver) LocalAverage(radius int) (*AverageResult, error) {
	if radius < 0 {
		return nil, fmt.Errorf("core: radius must be ≥ 0, got %d", radius)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.localAverageLocked(radius)
}

func (s *Solver) localAverageLocked(radius int) (*AverageResult, error) {
	st := s.state(radius)
	switch {
	case st.res == nil:
		if err := s.solveFull(radius, st); err != nil {
			return nil, err
		}
		s.stats.FullSolves++
		if m := s.obsM; m != nil {
			m.FullSolves.Inc()
			m.CacheHits.Add(int64(st.res.SolvesAvoided))
			m.CacheMisses.Add(int64(st.res.LocalLPs))
		}
	case st.nDirty > 0:
		if err := s.solveIncremental(radius, st); err != nil {
			return nil, err
		}
		s.stats.IncrementalSolves++
		if m := s.obsM; m != nil {
			m.IncrementalSolves.Inc()
			m.CacheHits.Add(int64(st.res.SolvesAvoided))
			m.CacheMisses.Add(int64(st.res.LocalLPs))
		}
	default:
		s.stats.WarmHits++
		s.obsM.RecordWarmHit()
	}
	s.publishCache()
	return copyResult(st.res), nil
}

// solveFull is the cold path: every agent's local LP through the shared
// cache, retaining per-agent entries for later incremental passes. It
// reuses the exact grouped pipeline of LocalAverageOpt, so its results
// and accounting match the free functions bit-for-bit.
func (s *Solver) solveFull(radius int, st *radiusState) error {
	csr := s.csr
	bi := s.ballIndex(radius)
	n := csr.NumAgents()
	res := &AverageResult{
		X:          make([]float64, n),
		Radius:     radius,
		Beta:       make([]float64, n),
		BallSize:   make([]int, n),
		LocalOmega: make([]float64, n),
	}
	for u := 0; u < n; u++ {
		res.BallSize[u] = bi.Size(u)
	}
	sums := make([]float64, n)
	entries := make([]*cacheEntry, n)
	if err := localAverageParallelDedup(csr, bi, n, s.workers, s.cache, s.presolve, res, sums, entries, s.obsM); err != nil {
		return err
	}
	copy(res.Beta, st.beta)
	for j := 0; j < n; j++ {
		res.X[j] = st.beta[j] / float64(bi.Size(j)) * sums[j]
	}
	res.PartyBound, res.ResourceBound = st.partyBound, st.resourceBound
	s.cache.c.acquire(entries)
	s.cache.c.release(st.entries)
	st.res, st.entries, st.sums = res, entries, sums
	st.dirty = make([]bool, n)
	st.nDirty = 0
	return nil
}

// solveIncremental re-solves only the agents whose local LPs a weight
// update may have changed, then replays the combination (10) for every
// coordinate their balls cover. The recomputation follows the exact
// accumulation order of the cold path — ascending agent order, same
// addends — so the updated result is bit-identical to a cold solve of
// the mutated instance.
func (s *Solver) solveIncremental(radius int, st *radiusState) error {
	csr := s.csr
	bi := s.ballIndex(radius)
	n := len(st.dirty)
	dirty := make([]int, 0, st.nDirty)
	for u := 0; u < n; u++ {
		if st.dirty[u] {
			dirty = append(dirty, u)
		}
	}
	var sw obs.Stopwatch
	var phFingerprint, phGroup, phLPSolve, phAccumulate *obs.Histogram
	if m := s.obsM; m != nil {
		phFingerprint, phGroup, phLPSolve, phAccumulate =
			m.PhaseFingerprint, m.PhaseGroup, m.PhaseLPSolve, m.PhaseAccumulate
		sw.Start()
	}

	// Phase 1: re-fingerprint the dirty agents in parallel, stealing
	// over cost-sorted balls — fingerprint cost scales with ball size,
	// and post-churn dirty sets are skewed enough that one hot ball can
	// serialise a static partition.
	nd := len(dirty)
	keys := make([][]byte, nd)
	hashes := make([]uint64, nd)
	trivial := make([]bool, nd)
	var fpCosts []int64
	if s.workers > 1 && nd > 1 {
		fpCosts = make([]int64, nd)
		for di, u := range dirty {
			fpCosts[di] = int64(bi.Size(u))
		}
	}
	if err := runSteal(nd, s.workers, fpCosts, s.obsM, func(di int) error {
		ls := s.getSolver(csr)
		defer s.pool.Put(ls)
		keys[di], hashes[di], trivial[di] = ls.fingerprint(bi.Ball(dirty[di]))
		return nil
	}); err != nil {
		return err
	}
	sw.Lap(phFingerprint)

	// Phase 2: group dirty agents by exact key, ascending, and consult
	// the shared cache — agents whose fingerprints did not actually
	// change (a party delta dirties every ball containing the agent,
	// but only balls satisfying Vk ⊆ B(u,R) assemble the row) hit
	// their old entries here and cost no simplex run.
	gid := make([]int32, nd)
	var reps []int
	bucket := make(map[uint64][]int32)
	for di := 0; di < nd; di++ {
		if trivial[di] {
			gid[di] = -1
			continue
		}
		found := int32(-1)
		for _, gi := range bucket[hashes[di]] {
			if string(keys[reps[gi]]) == string(keys[di]) {
				found = gi
				break
			}
		}
		if found < 0 {
			found = int32(len(reps))
			reps = append(reps, di)
			bucket[hashes[di]] = append(bucket[hashes[di]], found)
		}
		gid[di] = found
	}
	nG := len(reps)
	gEntry := make([]*cacheEntry, nG)
	for gi, rdi := range reps {
		gEntry[gi] = s.cache.c.lookup(hashes[rdi], keys[rdi])
	}
	sw.Lap(phGroup)

	// Phase 3: solve the groups the cache has never seen, in parallel,
	// then insert sequentially. Cost hints: a group already served by
	// the cache costs nothing; otherwise the last recorded pivot count
	// of the representative's previous entry predicts the re-solve
	// (pivot counts are stable under small weight perturbations), with
	// ball size as the cold fallback.
	gX := make([][]float64, nG)
	gOmega := make([]float64, nG)
	gPivots := make([]int, nG)
	var lpCosts []int64
	if s.workers > 1 && nG > 1 {
		lpCosts = make([]int64, nG)
		for gi, rdi := range reps {
			if gEntry[gi] != nil {
				continue
			}
			u := dirty[rdi]
			if e := st.entries[u]; e != nil && e.pivots > 0 {
				lpCosts[gi] = int64(e.pivots)
			} else {
				lpCosts[gi] = int64(bi.Size(u))
			}
		}
	}
	if err := runSteal(nG, s.workers, lpCosts, s.obsM, func(gi int) error {
		if gEntry[gi] != nil {
			return nil
		}
		ls := s.getSolver(csr)
		defer s.pool.Put(ls)
		u := dirty[reps[gi]]
		xu, omega, p, err := ls.solve(bi.Ball(u))
		if err != nil {
			return fmt.Errorf("core: local LP of agent %d: %w", u, err)
		}
		gX[gi] = append([]float64(nil), xu...)
		gOmega[gi], gPivots[gi] = omega, p
		return nil
	}); err != nil {
		return err
	}
	res := st.res
	res.LocalLPs, res.LocalPivots, res.SolvesAvoided = 0, 0, 0
	hits := 0
	// The keys and solutions were made for this pass: hand them over.
	for gi, rdi := range reps {
		if gEntry[gi] == nil {
			gEntry[gi] = s.cache.c.put(&cacheEntry{
				key: keys[rdi], x: gX[gi], omega: gOmega[gi], pivots: gPivots[gi], hash: hashes[rdi],
			}, true)
			res.LocalLPs++
			res.LocalPivots += gPivots[gi]
		}
	}
	sw.Lap(phLPSolve)

	// Phase 4: install the new entries and replay the combination (10)
	// for every coordinate a dirty ball covers. Balls are symmetric
	// (j ∈ B(u) ⟺ u ∈ B(j)), so recomputing sums[j] over B(j) in
	// ascending u order reproduces exactly the addend sequence of the
	// cold path. Every new entry is acquired before any replaced one is
	// released, so a ball whose key did not change keeps its entry.
	installed := make([]*cacheEntry, nd)
	replaced := make([]*cacheEntry, nd)
	for di, u := range dirty {
		replaced[di] = st.entries[u]
		if gid[di] < 0 {
			st.entries[u] = nil
			res.LocalOmega[u] = math.Inf(1)
			res.SolvesAvoided++
			continue
		}
		gi := gid[di]
		e := gEntry[gi]
		installed[di] = e
		st.entries[u] = e
		res.LocalOmega[u] = e.omega
		// Freshly solved representatives (gX non-nil) were counted as
		// LocalLPs above; everyone else was served without a simplex run.
		if !(di == reps[gi] && gX[gi] != nil) {
			res.SolvesAvoided++
			hits++
		}
	}
	s.cache.c.addHits(hits)
	s.cache.c.acquire(installed)
	s.cache.c.release(replaced)

	affected := make([]bool, len(st.dirty))
	var affectedList []int
	for _, u := range dirty {
		for _, v := range bi.Ball(u) {
			if !affected[v] {
				affected[v] = true
				affectedList = append(affectedList, int(v))
			}
		}
	}
	// Structural updates also affect coordinates through balls that no
	// longer exist (a member that left still has to leave the sum); the
	// patches recorded those as pendingAffected.
	for _, v := range st.pendingAffected {
		if !affected[v] {
			affected[v] = true
			affectedList = append(affectedList, int(v))
		}
	}
	st.pendingAffected = nil
	sort.Ints(affectedList)
	for _, j := range affectedList {
		sum := 0.0
		for _, u := range bi.Ball(j) {
			e := st.entries[u]
			if e == nil {
				continue
			}
			idx, _ := slices.BinarySearch(bi.Ball(int(u)), int32(j))
			sum += e.x[idx]
		}
		st.sums[j] = sum
		res.X[j] = st.beta[j] / float64(bi.Size(j)) * sum
	}
	// Coordinates whose β a structural update changed replay (10) from
	// their retained sums — the cold path's final expression. A
	// coordinate whose ball size changed has a patched ball, so it is
	// among the affected ones above.
	for _, j := range st.pendingBeta {
		res.X[j] = st.beta[j] / float64(bi.Size(int(j))) * st.sums[j]
	}
	st.pendingBeta = nil

	for _, u := range dirty {
		st.dirty[u] = false
	}
	st.nDirty = 0
	s.stats.AgentsResolved += nd
	sw.Lap(phAccumulate)
	if m := s.obsM; m != nil {
		m.AgentsResolved.Add(int64(nd))
	}
	return nil
}

// Adaptive grows the radius until the per-instance certificate meets the
// target ratio, then solves at that radius — AdaptiveAverage as a
// session method, with every certificate and the final solve served from
// (and retained in) session state. Bit-identical to AdaptiveAverage.
func (s *Solver) Adaptive(targetRatio float64, maxRadius int) (*AdaptiveResult, error) {
	if targetRatio <= 1 {
		return nil, fmt.Errorf("core: target ratio must exceed 1, got %v", targetRatio)
	}
	if maxRadius < 1 {
		return nil, fmt.Errorf("core: maxRadius must be ≥ 1, got %d", maxRadius)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &AdaptiveResult{TargetRatio: targetRatio}
	chosen := maxRadius
	for radius := 1; radius <= maxRadius; radius++ {
		st := s.state(radius)
		cert := st.partyBound * st.resourceBound
		out.Certificates = append(out.Certificates, cert)
		if cert <= targetRatio {
			chosen = radius
			out.Achieved = true
			break
		}
	}
	res, err := s.localAverageLocked(chosen)
	if err != nil {
		return nil, err
	}
	out.AverageResult = res
	return out, nil
}

// UpdateWeights applies coefficient changes to the session: the current
// instance and CSR are patched (copy-on-write; topology arrays stay
// shared with the original) and, for every radius already solved, the
// agents whose radius-R balls can see a touched row are marked for
// re-solve on the next LocalAverage call. Everything ball-structural —
// ball indexes, certificates, β — survives untouched, which is the
// whole point: a k-entry update costs O(k · ball volume) LP work, not a
// rebuild. Invalid deltas abort the whole update before any state
// changes.
func (s *Solver) UpdateWeights(deltas []WeightDelta) error {
	if len(deltas) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sw obs.Stopwatch
	if s.obsM != nil {
		sw.Start()
	}

	// Validate everything first: the update is atomic.
	var resUp, parUp []mmlp.CoeffUpdate
	for _, d := range deltas {
		switch d.Kind {
		case ResourceWeight:
			if d.Row < 0 || d.Row >= s.csr.NumResources() {
				return fmt.Errorf("core: resource %d out of range [0,%d)", d.Row, s.csr.NumResources())
			}
			if _, ok := slices.BinarySearch(s.csr.ResourceAgents(d.Row), int32(d.Agent)); !ok {
				return fmt.Errorf("core: agent %d is not in the support of resource %d", d.Agent, d.Row)
			}
			resUp = append(resUp, mmlp.CoeffUpdate{Row: d.Row, Agent: d.Agent, Coeff: d.Coeff})
		case PartyWeight:
			if d.Row < 0 || d.Row >= s.csr.NumParties() {
				return fmt.Errorf("core: party %d out of range [0,%d)", d.Row, s.csr.NumParties())
			}
			if _, ok := slices.BinarySearch(s.csr.PartyAgents(d.Row), int32(d.Agent)); !ok {
				return fmt.Errorf("core: agent %d is not in the support of party %d", d.Agent, d.Row)
			}
			parUp = append(parUp, mmlp.CoeffUpdate{Row: d.Row, Agent: d.Agent, Coeff: d.Coeff})
		default:
			return fmt.Errorf("core: unknown weight kind %d", d.Kind)
		}
		if !(d.Coeff > 0) || math.IsInf(d.Coeff, 0) {
			return fmt.Errorf("core: coefficient %v must be positive and finite", d.Coeff)
		}
	}
	in, err := s.in.UpdateCoeffs(resUp, parUp)
	if err != nil {
		return err
	}

	// Copy-on-write the CSR coefficient arrays once per hand-out, then
	// patch in place; pooled solvers rebind to the clone when taken out.
	if !s.csrOwned {
		s.csr = s.csr.CloneCoeffs()
		s.csrOwned = true
	}
	for _, d := range deltas {
		var err error
		if d.Kind == ResourceWeight {
			err = s.csr.SetResourceCoeff(d.Row, d.Agent, d.Coeff)
		} else {
			err = s.csr.SetPartyCoeff(d.Row, d.Agent, d.Coeff)
		}
		if err != nil {
			return err
		}
	}
	s.in = in

	// Invalidate: the local LP (9) of agent u restricts every row to the
	// ball's variables, so a change to the coefficient of agent v —
	// resource or party — can only alter LPs whose ball contains v:
	// a resource row contributes a_iv only when localIdx[v] ≥ 0, and a
	// party row k enters K^u only when Vk ⊆ B(u,R), which in particular
	// puts v in the ball. With symmetric balls (v ∈ B(u,R) ⟺
	// u ∈ B(v,R)), the dirty set of one delta is exactly B(v,R).
	invalidated := 0
	for radius, st := range s.states {
		if st.res == nil {
			continue
		}
		bi := s.ballIndex(radius)
		for _, d := range deltas {
			for _, v := range bi.Ball(d.Agent) {
				if !st.dirty[v] {
					st.dirty[v] = true
					st.nDirty++
					invalidated++
				}
			}
		}
	}
	s.stats.WeightUpdates++
	s.stats.DeltasApplied += len(deltas)
	s.cache.c.sweep()
	s.publishCache()
	if m := s.obsM; m != nil {
		m.WeightInvalidations.Add(int64(invalidated))
		sw.Lap(m.WeightUpdateSeconds)
	}
	return nil
}

// UpdateTopology applies structural changes — agents, resources,
// parties and support entries joining or leaving (see mmlp.TopoUpdate)
// — to the session. The instance, CSR index, communication graph and
// every retained ball index are patched by rebuilding only the affected
// rows and balls (never from scratch: CSRBuilds and BallIndexBuilds
// stay flat), and, for every radius already solved, exactly the agents
// in the union of balls B(v,R) around the touched vertices — in the old
// and the new topology — are marked for re-solve. The paper's local
// LPs (9) are ball-restricted, so no agent outside that union can see
// the change: its ball, the rows restricted to it, and hence its local
// solution are all unchanged. The next LocalAverage call re-fingerprints
// only the invalidated agents and replays the cold accumulation order
// for the coordinates their old and new balls cover, so results are
// bit-identical to a cold solve of the mutated instance. The certificate
// rows and β weights are re-derived only where the patched balls reach
// (see patchStructural), and the pooled local solvers are kept.
//
// Validation is atomic: an invalid op rejects the whole batch with no
// state change. The returned diff names what changed (added/removed
// agents, touched rows). Requires a session whose graph was built from
// the instance (NewSolver, or NewSolverFromGraph with a FromInstance
// graph).
func (s *Solver) UpdateTopology(ups []mmlp.TopoUpdate) (*mmlp.TopoDiff, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.g.CSR() == nil {
		return nil, fmt.Errorf("core: topology updates require a graph built from the instance (got a FromAdjacency graph)")
	}
	var sw obs.Stopwatch
	if s.obsM != nil {
		sw.Start()
	}
	newIn, d, err := s.in.ApplyTopo(ups)
	if err != nil {
		return nil, err
	}
	if d.Empty() {
		return d, nil
	}
	newCSR := s.csr.PatchTopo(newIn, d)
	newG := s.g.PatchTopo(newCSR, d.Touched)
	type patchResult struct{ dirty, affected []int32 }
	patches := make(map[int]patchResult, len(s.balls))
	for radius, bi := range s.balls {
		nbi, dirty, affected := bi.PatchTopo(newG, d.Touched)
		s.balls[radius] = nbi
		patches[radius] = patchResult{dirty, affected}
		s.stats.BallsPatched += len(dirty)
	}
	s.in, s.csr, s.g = newIn, newCSR, newG
	// The patched arrays are freshly allocated, but the new graph
	// shares them (newG.CSR() == newCSR) and Graph()/Snapshot() hand it
	// out as an immutable snapshot — so the next weight update must
	// CloneCoeffs before patching in place, exactly like the first
	// update after construction.
	s.csrOwned = false
	n := newCSR.NumAgents()
	s.scratch.grow(n)

	for radius, st := range s.states {
		bi := s.balls[radius]
		p := patches[radius]
		betaChanged := s.patchStructural(st, bi, d, p.dirty)
		if st.res == nil {
			continue
		}
		res := st.res
		if grown := n - len(res.X); grown > 0 {
			res.X = append(res.X, make([]float64, grown)...)
			res.Beta = append(res.Beta, make([]float64, grown)...)
			res.BallSize = append(res.BallSize, make([]int, grown)...)
			res.LocalOmega = append(res.LocalOmega, make([]float64, grown)...)
			st.sums = append(st.sums, make([]float64, grown)...)
			st.entries = append(st.entries, make([]*cacheEntry, grown)...)
			st.dirty = append(st.dirty, make([]bool, grown)...)
		}
		for _, j := range betaChanged {
			res.Beta[j] = st.beta[j]
		}
		res.PartyBound, res.ResourceBound = st.partyBound, st.resourceBound
		for _, u := range p.dirty {
			res.BallSize[u] = bi.Size(int(u))
			if !st.dirty[u] {
				st.dirty[u] = true
				st.nDirty++
			}
		}
		st.pendingAffected = append(st.pendingAffected, p.affected...)
		st.pendingBeta = append(st.pendingBeta, betaChanged...)
	}
	s.stats.TopoUpdates++
	s.stats.TopoOpsApplied += len(ups)
	s.stats.AgentsAdded += len(d.AddedAgents)
	s.stats.AgentsRemoved += len(d.RemovedAgents)
	s.cache.c.sweep()
	s.publishCache()
	if m := s.obsM; m != nil {
		for _, p := range patches {
			m.TopoInvalidations.Add(int64(len(p.dirty)))
		}
		m.AgentsAdded.Add(int64(len(d.AddedAgents)))
		m.AgentsRemoved.Add(int64(len(d.RemovedAgents)))
		sw.Lap(m.TopoUpdateSeconds)
	}
	return d, nil
}

// copyResult returns a private copy of a retained result, so callers can
// hold it across later session mutations.
func copyResult(r *AverageResult) *AverageResult {
	out := *r
	out.X = append([]float64(nil), r.X...)
	out.Beta = append([]float64(nil), r.Beta...)
	out.BallSize = append([]int(nil), r.BallSize...)
	out.LocalOmega = append([]float64(nil), r.LocalOmega...)
	return &out
}
