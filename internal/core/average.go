package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"maxminlp/internal/hypergraph"
	"maxminlp/internal/lp"
	"maxminlp/internal/mmlp"
	"maxminlp/internal/obs"
)

// AverageResult is the outcome of the Theorem-3 local averaging algorithm
// together with its per-instance certificate.
type AverageResult struct {
	// X is the combined solution x̃ of equation (10).
	X []float64
	// Radius is the parameter R; the local horizon of the algorithm is
	// Θ(R) (radius 2R+1 suffices for every quantity used).
	Radius int
	// Beta holds β_j = min_{i∈Ij} n_i/N_i per agent (equation (10)).
	Beta []float64
	// BallSize holds |V^j| = |B_H(j, R)| per agent.
	BallSize []int
	// PartyBound is max_k M_k/m_k and ResourceBound is max_i N_i/n_i;
	// their product certifies the approximation ratio of X for this
	// instance (Section 5.3). Both are ≤ the corresponding γ terms:
	// PartyBound ≤ γ(R−1) and ResourceBound ≤ γ(R).
	PartyBound    float64
	ResourceBound float64
	// LocalOmega[u] is ω^u, the optimum of agent u's local LP (9);
	// +Inf when K^u is empty. Every x* feasible for (1) is feasible for
	// (9), so ω^u ≥ ω* for all u — inequality (13) of the paper — and
	// min_u ω^u is a locally computable upper bound on the optimum.
	LocalOmega []float64
	// LocalLPs counts the local LPs actually solved by the simplex and
	// LocalPivots the total pivots across them. With isomorphic-ball
	// dedup enabled (the default), agents whose local LPs are
	// element-for-element identical share one solve, so LocalLPs reports
	// distinct solves — O(#orbits) on symmetric instances — while
	// SolvesAvoided counts the agents served from the cache (including
	// the trivial K^u = ∅ balls, which need no simplex at all). On the
	// reference path (NoDedup) LocalLPs is the number of agents, as it
	// always was.
	LocalLPs    int
	LocalPivots int
	// SolvesAvoided counts local LPs answered without running the
	// simplex; 0 on the reference path.
	SolvesAvoided int
}

// OmegaUpperBound returns min_u ω^u ≥ ω*, the optimistic bound implied by
// inequality (13).
func (r *AverageResult) OmegaUpperBound() float64 {
	bound := math.Inf(1)
	for _, w := range r.LocalOmega {
		bound = min(bound, w)
	}
	return bound
}

// RatioCertificate is the instance-specific approximation guarantee
// max_k M_k/m_k · max_i N_i/n_i proven in Section 5.3.
func (r *AverageResult) RatioCertificate() float64 {
	return r.PartyBound * r.ResourceBound
}

// LocalAverage runs the local approximation algorithm of Theorem 3 with
// radius R on the instance, simulated centrally (see package dist for the
// message-passing execution). For each agent u it solves the local LP (9)
// restricted to the ball V^u = B_H(u, R), and then combines the local
// solutions according to equation (10):
//
//	β_j = min_{i∈Ij} n_i/N_i,   x̃_j = β_j/|V^j| · Σ_{u∈V^j} x^u_j,
//
// where n_i = min{|V^j| : j ∈ Vi} and N_i = |∪_{j∈Vi} V^j|.
//
// The returned solution is feasible (Section 5.2) and approximates the
// optimum within max_k M_k/m_k · max_i N_i/n_i ≤ γ(R−1)·γ(R)
// (Section 5.3).
//
// LocalAverage is a thin wrapper over a throwaway Solver session;
// callers issuing repeated queries against one instance should hold a
// Solver instead and amortise the CSR, ball-index and solve-cache
// construction across them. Results are bit-identical either way.
func LocalAverage(in *mmlp.Instance, g *hypergraph.Graph, radius int) (*AverageResult, error) {
	if radius < 0 {
		return nil, fmt.Errorf("core: radius must be ≥ 0, got %d", radius)
	}
	return NewSolverFromGraph(in, g).LocalAverage(radius)
}

// AverageOptions tunes the execution of the Theorem-3 algorithm. The
// execution options (Workers, NoDedup, Cache) never change any output:
// every combination produces bit-identical X, Beta, BallSize,
// LocalOmega and certificate bounds. Presolve is the one exception —
// see its comment.
type AverageOptions struct {
	// Workers is the number of goroutines solving local LPs; ≤ 1 means
	// sequential.
	Workers int
	// NoDedup disables the isomorphic-ball LP cache and solves every
	// agent's local LP independently — the reference path the dedup
	// layer is tested against.
	NoDedup bool
	// Cache, when non-nil, is consulted and populated by the run,
	// carrying solved local LPs across calls (AdaptiveAverage shares one
	// cache across its radius search; callers may share one across
	// instances — keys are content-based). Ignored when NoDedup is set.
	// The caller must not use one cache from concurrent runs.
	Cache *SolveCache
	// Presolve eliminates redundant rows from each ball LP before
	// fingerprinting and solving (see localSolver.reduce): duplicate
	// and dominated rows, guarded by bitwise coefficient equality, are
	// dropped, so balls differing only in redundant structure share one
	// cache orbit and SolvesAvoided grows on boundary-heavy instances.
	// Presolve is value-exact — the feasible set and ω of every ball LP
	// are unchanged — but a fired reduction may change the simplex pivot
	// sequence, so X can differ from the unpresolved run in the last
	// ulps on instances where reductions fire; on instances where none
	// fire (generic weights) results are bit-identical. All combinations
	// of the other options remain bit-identical to each other at a fixed
	// Presolve setting.
	Presolve bool
}

// LocalAverageOpt is LocalAverage with explicit execution options.
func LocalAverageOpt(in *mmlp.Instance, g *hypergraph.Graph, radius int, opt AverageOptions) (*AverageResult, error) {
	return localAverage(in, g, radius, opt)
}

// localAverage is the shared flat-array implementation of LocalAverage
// and LocalAverageParallel: balls come from a radius-R BallIndex computed
// once (sharded across the workers), the local LPs run on per-worker
// localSolvers, and the accumulation of equation (10) always runs in
// ascending agent order — so every worker count produces bit-identical
// results. With dedup enabled (the default) a cached solution is only
// reused after an exact canonical-key match, so the dedup paths are
// bit-identical to the reference path too.
func localAverage(in *mmlp.Instance, g *hypergraph.Graph, radius int, opt AverageOptions) (*AverageResult, error) {
	if radius < 0 {
		return nil, fmt.Errorf("core: radius must be ≥ 0, got %d", radius)
	}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	n := in.NumAgents()
	res := &AverageResult{
		X:          make([]float64, n),
		Radius:     radius,
		Beta:       make([]float64, n),
		BallSize:   make([]int, n),
		LocalOmega: make([]float64, n),
	}
	csr := csrOf(in, g)
	bi := g.BallIndex(radius, workers)
	for u := 0; u < n; u++ {
		res.BallSize[u] = bi.Size(u)
	}

	// Solve the local LP (9) of every agent and accumulate
	// Σ_{u∈V^j} x^u_j in ascending u order, so the floating-point sums
	// are independent of the worker count. The sequential path streams
	// each x^u into the sums as it is solved; the parallel paths buffer
	// the solutions and replay the identical accumulation afterwards.
	sums := make([]float64, n)
	switch {
	case workers == 1:
		s := newLocalSolver(csr)
		s.presolve = opt.Presolve
		if !opt.NoDedup {
			if opt.Cache != nil {
				s.cache = opt.Cache.c
			} else {
				s.cache = newSolveCache()
			}
		}
		for u := 0; u < n; u++ {
			var (
				xu    []float64
				omega float64
				p     int
				hit   bool
				err   error
			)
			if s.cache != nil {
				xu, omega, p, hit, err = s.solveCached(bi.Ball(u))
			} else {
				xu, omega, p, err = s.solve(bi.Ball(u))
			}
			if err != nil {
				return nil, fmt.Errorf("core: local LP of agent %d: %w", u, err)
			}
			res.LocalOmega[u] = omega
			if hit {
				res.SolvesAvoided++
			} else {
				res.LocalLPs++
				res.LocalPivots += p
			}
			for idx, v := range bi.Ball(u) {
				sums[v] += xu[idx]
			}
		}
	case opt.NoDedup:
		xus := make([][]float64, n)
		pivots := make([]int, n)
		var solvers sync.Pool
		solvers.New = func() any {
			ls := newLocalSolver(csr)
			ls.presolve = opt.Presolve
			return ls
		}
		if err := runSteal(n, workers, ballSizeCosts(bi, n, workers), nil, func(u int) error {
			s := solvers.Get().(*localSolver)
			defer solvers.Put(s)
			xu, omega, p, err := s.solve(bi.Ball(u))
			if err != nil {
				return fmt.Errorf("core: local LP of agent %d: %w", u, err)
			}
			// s.solve returns workspace-aliased memory; buffer a copy.
			xus[u] = append([]float64(nil), xu...)
			res.LocalOmega[u] = omega
			pivots[u] = p
			return nil
		}); err != nil {
			return nil, err
		}
		for u := 0; u < n; u++ {
			res.LocalLPs++
			res.LocalPivots += pivots[u]
			for idx, v := range bi.Ball(u) {
				sums[v] += xus[u][idx]
			}
		}
	default:
		if err := localAverageParallelDedup(csr, bi, n, workers, opt.Cache, opt.Presolve, res, sums, nil, nil); err != nil {
			return nil, err
		}
	}

	// Per-row certificate quantities: n_i/N_i with N_i = |U_i| and n_i =
	// min |V^j| (Figure 2), and M_k/m_k with m_k = |S_k| = |∩_{j∈Vk} V^j|,
	// M_k = max |V^j| — the same rows a Solver session retains.
	cert := newCertRows(csr, bi, NewCertScratch(csr))
	res.PartyBound, res.ResourceBound = cert.bounds()

	// β_j and the combined solution x̃ (equation (10)).
	for j := 0; j < n; j++ {
		res.Beta[j] = betaOf(csr, cert.resRatio, j)
		res.X[j] = res.Beta[j] / float64(bi.Size(j)) * sums[j]
	}
	return res, nil
}

// localAverageParallelDedup is the deduplicated parallel local-LP phase:
// fingerprint every ball in parallel, group agents by exact canonical
// key in ascending order (so representatives — and with them the
// LocalLPs/LocalPivots accounting — match the sequential streaming
// cache), solve one representative per group in parallel, then replay
// the sequential accumulation. shared, when non-nil, carries solved LPs
// in and out of the run. entriesOut, when non-nil (requires shared),
// receives each agent's cache entry — nil for trivial K^u = ∅ balls —
// which is how the Solver session retains per-agent solutions for
// incremental re-solves; the caller must acquire them. m, when non-nil,
// receives per-phase latencies and binds LP accounting to the pooled
// workspaces; metrics never change any output bit.
func localAverageParallelDedup(csr *hypergraph.CSR, bi *hypergraph.BallIndex, n, workers int, sharedCache *SolveCache, presolve bool, res *AverageResult, sums []float64, entriesOut []*cacheEntry, m *obs.SolveMetrics) error {
	var solvers sync.Pool
	solvers.New = func() any {
		ls := newLocalSolver(csr)
		ls.ws.SetMetrics(m.LPBundle())
		ls.presolve = presolve
		ls.dropCounter = m.PresolveDroppedCounter()
		return ls
	}
	var sw obs.Stopwatch
	var phFingerprint, phGroup, phLPSolve, phAccumulate *obs.Histogram
	if m != nil {
		phFingerprint, phGroup, phLPSolve, phAccumulate =
			m.PhaseFingerprint, m.PhaseGroup, m.PhaseLPSolve, m.PhaseAccumulate
		sw.Start()
	}

	// Phase 1: canonical fingerprints, in parallel, stealing over
	// cost-sorted balls (fingerprint cost scales with ball size).
	keys := make([][]byte, n)
	hashes := make([]uint64, n)
	trivial := make([]bool, n)
	if err := runSteal(n, workers, ballSizeCosts(bi, n, workers), m, func(u int) error {
		s := solvers.Get().(*localSolver)
		defer solvers.Put(s)
		keys[u], hashes[u], trivial[u] = s.fingerprint(bi.Ball(u))
		return nil
	}); err != nil {
		return err
	}
	sw.Lap(phFingerprint)

	// Phase 2: group agents by exact key, ascending, so each group's
	// representative is its smallest agent — the agent the sequential
	// streaming cache would have solved.
	gid := make([]int32, n)
	var reps []int
	bucket := make(map[uint64][]int32)
	for u := 0; u < n; u++ {
		if trivial[u] {
			gid[u] = -1
			continue
		}
		found := int32(-1)
		for _, gi := range bucket[hashes[u]] {
			if bytes.Equal(keys[reps[gi]], keys[u]) {
				found = gi
				break
			}
		}
		if found < 0 {
			found = int32(len(reps))
			reps = append(reps, u)
			bucket[hashes[u]] = append(bucket[hashes[u]], found)
		}
		gid[u] = found
	}

	// Phase 3: solve one representative per group (consulting the shared
	// cache first), in parallel.
	nG := len(reps)
	gX := make([][]float64, nG)
	gOmega := make([]float64, nG)
	gPivots := make([]int, nG)
	gHit := make([]bool, nG)
	gEntry := make([]*cacheEntry, nG)
	var shared *solveCache
	if sharedCache != nil {
		shared = sharedCache.c
		for gi, u := range reps {
			if e := shared.lookup(hashes[u], keys[u]); e != nil {
				gX[gi], gOmega[gi], gPivots[gi], gHit[gi] = e.x, e.omega, e.pivots, true
				gEntry[gi] = e
			}
		}
	}
	sw.Lap(phGroup)
	// Cost hints for the solve phase: cache-served groups cost nothing,
	// the rest scale with their representative's ball size.
	var lpCosts []int64
	if workers > 1 && nG > 1 {
		lpCosts = make([]int64, nG)
		for gi, u := range reps {
			if !gHit[gi] {
				lpCosts[gi] = int64(bi.Size(u))
			}
		}
	}
	if err := runSteal(nG, workers, lpCosts, m, func(gi int) error {
		if gHit[gi] {
			return nil
		}
		s := solvers.Get().(*localSolver)
		defer solvers.Put(s)
		u := reps[gi]
		xu, omega, p, err := s.solve(bi.Ball(u))
		if err != nil {
			return fmt.Errorf("core: local LP of agent %d: %w", u, err)
		}
		gX[gi] = append([]float64(nil), xu...)
		gOmega[gi], gPivots[gi] = omega, p
		return nil
	}); err != nil {
		return err
	}
	if shared != nil {
		// The keys and solutions were made for this run: hand them over.
		for gi, u := range reps {
			if !gHit[gi] {
				gEntry[gi] = shared.put(&cacheEntry{
					key: keys[u], x: gX[gi], omega: gOmega[gi], pivots: gPivots[gi], hash: hashes[u],
				}, entriesOut != nil)
			}
		}
	}
	sw.Lap(phLPSolve)

	// Phase 4: the sequential accumulation order of equation (10).
	// Trivial balls contribute x^u = 0, which the += below would not
	// change bit-for-bit, so they are skipped outright.
	sharedHits := 0
	for u := 0; u < n; u++ {
		if gid[u] < 0 {
			res.LocalOmega[u] = math.Inf(1)
			res.SolvesAvoided++
			continue
		}
		gi := gid[u]
		if entriesOut != nil {
			entriesOut[u] = gEntry[gi]
		}
		res.LocalOmega[u] = gOmega[gi]
		if u == reps[gi] && !gHit[gi] {
			res.LocalLPs++
			res.LocalPivots += gPivots[gi]
		} else {
			res.SolvesAvoided++
			// Mirror the sequential streaming cache's accounting: one
			// hit per non-trivial agent served without a simplex run.
			sharedHits++
		}
		x := gX[gi]
		for idx, v := range bi.Ball(u) {
			sums[v] += x[idx]
		}
	}
	if shared != nil {
		shared.addHits(sharedHits)
	}
	sw.Lap(phAccumulate)
	return nil
}

// InstanceView is the read surface a local LP solve needs. A full
// *mmlp.Instance satisfies it via FullView; the distributed runtime
// implements it on top of the partial knowledge a node has gathered, so
// that the message-passing execution reuses the exact same code path (and
// therefore produces bit-identical results).
//
// ResourceRow and PartyRow may omit entries for agents whose coefficients
// the viewer does not know, but must include every agent inside the ball
// being solved. ResourceMembers and PartyMembers must always be the full
// support (agent identities are learned from any member's record).
type InstanceView interface {
	AgentResources(v int) []int
	AgentParties(v int) []int
	ResourceRow(i int) []mmlp.Entry
	PartyRow(k int) []mmlp.Entry
	PartyMembers(k int) []int
}

// FullView adapts a complete instance to the InstanceView interface.
type FullView struct{ In *mmlp.Instance }

// AgentResources returns Iv.
func (f FullView) AgentResources(v int) []int { return f.In.AgentResources(v) }

// AgentParties returns Kv.
func (f FullView) AgentParties(v int) []int { return f.In.AgentParties(v) }

// ResourceRow returns the full row of resource i.
func (f FullView) ResourceRow(i int) []mmlp.Entry { return f.In.Resource(i) }

// PartyRow returns the full row of party k.
func (f FullView) PartyRow(k int) []mmlp.Entry { return f.In.Party(k) }

// PartyMembers returns the agents of Vk.
func (f FullView) PartyMembers(k int) []int {
	row := f.In.Party(k)
	out := make([]int, len(row))
	for j, e := range row {
		out[j] = e.Agent
	}
	return out
}

// SolveBallLP solves the local LP (9) for the given ball through an
// InstanceView; see solveLocalLP for the formulation. It is the
// one-shot reference entry point (no fingerprinting, no cache) that the
// dedup paths are tested against; callers solving many ball LPs — the
// distributed engines do, per node — should hold a BallSolver instead.
func SolveBallLP(view InstanceView, ball []int, inBall map[int]bool) ([]float64, int, error) {
	s := &BallSolver{ws: lp.NewWorkspace()}
	x, _, pivots, err := s.Solve(view, ball, inBall)
	return x, pivots, err
}

// BallSolver is the per-node local-LP solve kernel of the distributed
// engines: it solves ball LPs through InstanceViews on one reusable
// lp.Workspace and deduplicates isomorphic balls through the same
// exact-key cache as the centralised pipeline. A node re-solving the
// local LP of every agent in its own ball (the redundant recomputation
// that makes the protocol coordination-free) therefore runs the simplex
// only once per distinct LP. Results are bit-identical to SolveBallLP
// because a cached solution is only reused after an exact canonical-key
// match. Not safe for concurrent use.
type BallSolver struct {
	ws     *lp.Workspace
	cache  *solveCache
	keyBuf []byte
}

// NewBallSolver returns a solver with an empty workspace and cache.
func NewBallSolver() *BallSolver {
	return &BallSolver{ws: lp.NewWorkspace(), cache: newSolveCache()}
}

// NewBallSolverWithCache returns a solver backed by the given shared
// cache. The cache is internally synchronised, so many such solvers —
// one per node or per worker of a distributed engine — may run
// concurrently against it; the workspace and key buffer of each solver
// remain single-goroutine. Canonical keys are identical between the
// view-based and CSR-based pipelines, so a cache warmed by a Solver
// session deduplicates the engines' redundant per-node re-solves too.
func NewBallSolverWithCache(c *SolveCache) *BallSolver {
	return &BallSolver{ws: lp.NewWorkspace(), cache: c.c}
}

// SolvesAvoided reports how many Solve calls were answered from the
// isomorphic-ball cache (for a shared cache, across all its holders).
func (s *BallSolver) SolvesAvoided() int {
	if s.cache == nil {
		return 0
	}
	_, _, hits := s.cache.counts()
	return hits
}

// Solve solves the local LP (9) for the ball through the view, returning
// the local solution, ω^u and the pivots performed (0 on a cache hit).
// The returned slice must be treated as read-only; it is either cache
// memory shared with future calls or workspace memory valid until the
// next Solve.
func (s *BallSolver) Solve(view InstanceView, ball []int, inBall map[int]bool) ([]float64, float64, int, error) {
	nLoc := len(ball)
	localIdx := make(map[int]int, nLoc)
	for idx, v := range ball {
		localIdx[v] = idx
	}

	// Collect I^u (resources touching the ball) and K^u (parties inside).
	resSeen := make(map[int]bool)
	parSeen := make(map[int]bool)
	var resList, parList []int
	for _, v := range ball {
		for _, i := range view.AgentResources(v) {
			if !resSeen[i] {
				resSeen[i] = true
				resList = append(resList, i)
			}
		}
		for _, k := range view.AgentParties(v) {
			if parSeen[k] {
				continue
			}
			parSeen[k] = true
			inside := true
			for _, member := range view.PartyMembers(k) {
				if !inBall[member] {
					inside = false
					break
				}
			}
			if inside {
				parList = append(parList, k)
			}
		}
	}
	sort.Ints(resList)
	sort.Ints(parList)

	if len(parList) == 0 {
		// ω^u = min over the empty K^u is +∞; x^u = 0 by convention.
		return make([]float64, nLoc), math.Inf(1), 0, nil
	}

	// Canonical fingerprint — the same ball-relative encoding as the
	// CSR-based solver, so the dedup guarantee is the same: reuse only
	// on exact key equality. A solver without a cache (SolveBallLP's
	// one-shot reference path) skips fingerprinting entirely.
	var key []byte
	var hash uint64
	if s.cache != nil {
		key = appendKeyHeader(s.keyBuf[:0], nLoc, len(resList))
		for _, i := range resList {
			for _, e := range view.ResourceRow(i) {
				if idx, ok := localIdx[e.Agent]; ok {
					key = appendKeyEntry(key, int32(idx), e.Coeff)
				}
			}
			key = appendKeyRowEnd(key)
		}
		key = binary.LittleEndian.AppendUint32(key, uint32(len(parList)))
		for _, k := range parList {
			for _, e := range view.PartyRow(k) {
				key = appendKeyEntry(key, int32(localIdx[e.Agent]), e.Coeff)
			}
			key = appendKeyRowEnd(key)
		}
		s.keyBuf = key
		hash = fnv64a(key)
		if e := s.cache.lookup(hash, key); e != nil {
			s.cache.addHits(1)
			return e.x, e.omega, 0, nil
		}
	}

	ws := s.ws
	ws.Begin(nLoc + 1)
	ws.Obj()[nLoc] = 1
	for _, i := range resList {
		row := ws.AddRow(lp.LE, 1)
		for _, e := range view.ResourceRow(i) {
			if idx, ok := localIdx[e.Agent]; ok {
				row[idx] = e.Coeff
			}
		}
	}
	for _, k := range parList {
		row := ws.AddRow(lp.LE, 0)
		for _, e := range view.PartyRow(k) {
			row[localIdx[e.Agent]] = -e.Coeff
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
	x := sol.X[:nLoc]
	if s.cache != nil {
		s.cache.insert(hash, key, x, sol.Value, sol.Pivots)
	}
	return x, sol.Value, sol.Pivots, nil
}

// solveLocalLP solves problem (9) for the ball V^u: maximise
// ω^u = min_{k∈K^u} Σ_{v∈Vk} c_kv x^u_v subject to
// Σ_{v∈V^u_i} a_iv x^u_v ≤ 1 for each i ∈ I^u, x^u ≥ 0, where
// K^u = {k : Vk ⊆ V^u} and I^u = {i : Vi ∩ V^u ≠ ∅}.
//
// If K^u is empty the objective is vacuous and the algorithm uses x^u = 0,
// which keeps every downstream quantity well-defined without affecting the
// analysis. The solve order (agents, resources, parties all sorted by
// index) makes the result deterministic, as required for all members of
// V^u to recompute the same x^u independently.
func solveLocalLP(in *mmlp.Instance, ball []int, inBall map[int]bool) ([]float64, int, error) {
	x, _, pivots, err := solveLocalOmega(in, ball, inBall)
	return x, pivots, err
}

func solveLocalOmega(in *mmlp.Instance, ball []int, inBall map[int]bool) ([]float64, float64, int, error) {
	return solveLocalView(FullView{In: in}, ball, inBall)
}

func solveLocalView(in InstanceView, ball []int, inBall map[int]bool) ([]float64, float64, int, error) {
	return NewBallSolver().Solve(in, ball, inBall)
}
