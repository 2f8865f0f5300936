package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"maxminlp"
	"maxminlp/internal/httpapi"
	"maxminlp/internal/obs"
	"maxminlp/internal/wal"
)

// The daemon's JSON surface is defined once, in internal/httpapi; the
// aliases keep the handlers and tests reading naturally.
type (
	loadRequest      = httpapi.LoadRequest
	latticeSpec      = httpapi.LatticeSpec
	randomSpec       = httpapi.RandomSpec
	instanceInfo     = httpapi.InstanceInfo
	listResponse     = httpapi.ListResponse
	solveRequest     = httpapi.SolveRequest
	solveQuery       = httpapi.SolveQuery
	solveResult      = httpapi.SolveResult
	weightsRequest   = httpapi.WeightsRequest
	coeffPatch       = httpapi.CoeffPatch
	weightsResponse  = httpapi.WeightsResponse
	topologyRequest  = httpapi.TopologyRequest
	topoOpSpec       = httpapi.TopoOp
	topologyResponse = httpapi.TopologyResponse
	healthResponse   = httpapi.HealthResponse
	statsResponse    = httpapi.StatsResponse
	solveStats       = httpapi.SolveStats
)

// server is the mmlpd state: one Solver session per loaded instance.
// The map is guarded by mu; each session serialises its own queries
// internally, so concurrent requests against one instance are safe and
// requests against different instances proceed in parallel.
type server struct {
	mu        sync.Mutex
	instances map[string]*managed
	nextID    int
	started   time.Time
	logf      func(format string, args ...any)
	obs       *serverObs
	pprofOn   bool

	// solveWorkers is the daemon-wide default for Solver.SetWorkers,
	// from -solve-workers; a load request's explicit workers field wins,
	// and 0 leaves the session at its GOMAXPROCS default.
	solveWorkers int

	// presolve, from -presolve, enables ball-LP presolve on every
	// session the daemon creates; the dedup-hit delta it produces shows
	// up on /metrics as mmlp_presolve_rows_dropped_total alongside the
	// mmlp_solve_cache_total series.
	presolve bool

	// cluster, when non-nil, makes this server the coordinator of a
	// worker cluster: loads and patches fan out to every worker, and
	// average/safe solves run partitioned across them. It is installed
	// via setCluster after WAL replay (the cluster seeds its patch
	// journal from the recovered instances), so handlers read it through
	// getCluster; isCoordinator is set before the routes are built and
	// gates the /v1/cluster endpoint.
	cluster       *cluster
	isCoordinator bool

	// Durability. Every committed mutation appends to the WAL before its
	// response is written — "acked ⇒ logged". commitMu orders commits
	// against snapshots: mutating handlers hold it shared across
	// apply+append+fan-out, the snapshotter holds it exclusively, so a
	// snapshot never captures a state whose log record hasn't landed.
	// Lock order: commitMu, then s.mu, then a managed's mu.
	wal        *wal.Log
	walSnap    *wal.Snapshot // staged by openWAL, consumed by replayWAL
	walRecs    []wal.Record
	walEvery   int
	commitMu   sync.RWMutex
	recovering atomic.Bool // true until replayWAL (and cluster formation) finish
}

// managed is one loaded instance and its long-lived session. mu
// linearises solve batches against weight patches: the session itself
// serialises each call, but a solve handler also evaluates the
// objective of the returned X against the current instance, and that
// pairing must not interleave with a concurrent patch (the X would be
// scored under weights it was not solved for). In cluster mode the same
// lock linearises the patch fan-out to the workers, so every replica
// applies the same patch sequence — the PR 4/5 linearisation lock,
// now spanning processes. Different instances still proceed fully in
// parallel.
type managed struct {
	ID      string
	Name    string
	Loaded  time.Time
	Agents  int
	Queries atomic.Int64

	seq  int
	sess *maxminlp.Solver
	mu   sync.Mutex

	// xmemo holds the last served X per (kind, radius) with its JSON
	// text; used only under mu.
	xmemo *httpapi.XMemo

	// Load-time session options, kept verbatim so the WAL and the
	// cluster journal can rebuild an identical session elsewhere.
	oblivious bool
	workers   int
}

// maxServedRadius caps the radius (and adaptive maxRadius) a request
// may ask for. Every queried radius retains a ball index for the
// session's lifetime, and on expanding graphs a huge radius makes every
// ball the whole vertex set — O(n²) memory a single request could pin.
var maxServedRadius = 32

// maxPatchEntries caps the entries of one weight or topology patch —
// the same bound for both endpoints, so a single request cannot queue
// unbounded validation work behind an instance's linearisation lock.
var maxPatchEntries = 4096

// maxServedAgents caps the agent count an instance may reach — at load
// time (every source, not just the lattice generators) and through
// /topology addAgent growth. maxServedRows is the matching cap on the
// total resource+party row count, which /topology addEdge ops can also
// grow (an addEdge at the current row count creates the row). The caps
// are variables only so the error-path tests can lower them instead of
// building multi-million-agent instances.
var (
	maxServedAgents = 1 << 22
	maxServedRows   = 1 << 22
)

func newServer(logf func(string, ...any)) *server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &server{
		instances: make(map[string]*managed),
		started:   time.Now(),
		logf:      logf,
		obs:       newServerObs(),
	}
	s.setSlow(time.Second)
	return s
}

// handler builds the route table. Method+path patterns need Go ≥ 1.22.
// Every endpoint goes through wrap, which records the per-endpoint
// latency histogram and request counter and opens the request's trace
// span. The pprof handlers mount only when enabled (-pprof): they
// expose stacks and heap contents, which an always-on daemon should
// not serve by default.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.wrap("healthz", s.handleHealth))
	mux.HandleFunc("GET /metrics", s.wrap("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/stats", s.wrap("stats", s.handleStats))
	mux.HandleFunc("POST /v1/instances", s.wrap("load", s.handleLoad))
	mux.HandleFunc("GET /v1/instances", s.wrap("list", s.handleList))
	mux.HandleFunc("GET /v1/instances/{id}", s.wrap("get", s.handleGet))
	mux.HandleFunc("DELETE /v1/instances/{id}", s.wrap("delete", s.handleDelete))
	mux.HandleFunc("POST /v1/instances/{id}/solve", s.wrap("solve", s.handleSolve))
	mux.HandleFunc("POST /v1/instances/{id}/weights", s.wrap("weights", s.handleWeights))
	mux.HandleFunc("POST /v1/instances/{id}/topology", s.wrap("topology", s.handleTopology))
	if s.isCoordinator || s.cluster != nil {
		mux.HandleFunc("GET /v1/cluster", s.wrap("cluster", s.handleCluster))
	}
	if s.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// buildInstance materialises the instance a load request describes.
func buildInstance(req *loadRequest, panics *obs.Counter) (in *maxminlp.Instance, err error) {
	sources := 0
	for _, set := range []bool{req.Torus != nil, req.Grid != nil, req.Random != nil, len(req.Instance) > 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("exactly one of torus, grid, random or instance must be given (got %d)", sources)
	}
	// The generators enforce their invariants by panicking (they are
	// library entry points for correct-by-construction callers); a load
	// request is untrusted input, so convert any panic into a 400 and
	// count it — the size pre-checks below exist only for what a panic
	// could not guard (allocations too large to attempt).
	defer func() {
		if r := recover(); r != nil {
			panics.Inc()
			in, err = nil, fmt.Errorf("invalid instance spec: %v", r)
		}
	}()
	switch {
	case req.Torus != nil:
		if err := checkDims(req.Torus.Dims); err != nil {
			return nil, fmt.Errorf("torus: %w", err)
		}
		in, _ := maxminlp.Torus(req.Torus.Dims, latticeOptions(req.Torus))
		return in, nil
	case req.Grid != nil:
		if err := checkDims(req.Grid.Dims); err != nil {
			return nil, fmt.Errorf("grid: %w", err)
		}
		in, _ := maxminlp.Grid(req.Grid.Dims, latticeOptions(req.Grid))
		return in, nil
	case req.Random != nil:
		r := req.Random
		if r.Agents <= 0 || r.Resources <= 0 || r.Parties < 0 {
			return nil, fmt.Errorf("random needs agents > 0, resources > 0, parties ≥ 0")
		}
		if r.Agents > maxServedAgents || r.Resources > maxServedRows || r.Parties > maxServedRows-r.Resources {
			return nil, fmt.Errorf("random instance too large to serve")
		}
		// MaxVI/MaxVK < 1 is left to the generator's own invariant panic,
		// which the recover above converts and counts.
		return maxminlp.RandomInstance(maxminlp.RandomOptions{
			Agents: r.Agents, Resources: r.Resources, Parties: r.Parties,
			MaxVI: r.MaxVI, MaxVK: r.MaxVK,
		}, rand.New(rand.NewSource(r.Seed))), nil
	default:
		in := new(maxminlp.Instance)
		if err := json.Unmarshal(req.Instance, in); err != nil {
			return nil, fmt.Errorf("instance JSON: %w", err)
		}
		return in, nil
	}
}

func checkDims(dims []int) error {
	if len(dims) == 0 {
		return fmt.Errorf("needs dims")
	}
	cells := 1
	for _, d := range dims {
		if d < 1 {
			return fmt.Errorf("dimension %d < 1", d)
		}
		if cells > maxServedAgents/d {
			return fmt.Errorf("lattice too large to serve")
		}
		cells *= d
	}
	return nil
}

func latticeOptions(spec *latticeSpec) maxminlp.LatticeOptions {
	opt := maxminlp.LatticeOptions{RandomWeights: spec.RandomWeights}
	if spec.RandomWeights {
		opt.Rng = rand.New(rand.NewSource(spec.Seed))
	}
	return opt
}

func (s *server) handleLoad(w http.ResponseWriter, r *http.Request) {
	sp := spanOf(r)
	var req loadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		apiError(w, httpapi.CodeInvalidJSON, "request JSON: %v", err)
		return
	}
	sp.Phase("load")
	in, err := buildInstance(&req, s.obs.panics)
	if err != nil {
		apiError(w, httpapi.CodeInvalidArgument, "%v", err)
		return
	}
	if in.NumAgents() == 0 {
		apiError(w, httpapi.CodeInvalidArgument, "instance has no agents")
		return
	}
	// The generator-specific checks above bound their own output; this
	// catches every source (inline JSON in particular).
	if in.NumAgents() > maxServedAgents || in.NumResources()+in.NumParties() > maxServedRows {
		s.reject(w, httpapi.CodeInstanceTooLarge, "instance too large to serve (%d agents, %d rows)",
			in.NumAgents(), in.NumResources()+in.NumParties())
		return
	}
	sp.Phase("validate")
	sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{
		CollaborationOblivious: req.CollaborationOblivious,
	})
	if req.Workers > 0 {
		sess.SetWorkers(req.Workers)
	} else if s.solveWorkers > 0 {
		sess.SetWorkers(s.solveWorkers)
	}
	sess.SetObs(s.obs.solve)
	if s.presolve {
		sess.SetPresolve(true)
	}
	sp.Phase("linearise")
	raw, err := json.Marshal(in)
	if err != nil {
		apiError(w, httpapi.CodeInternal, "encoding instance: %v", err)
		return
	}
	s.commitMu.RLock()
	s.mu.Lock()
	s.nextID++
	m := &managed{
		ID:        fmt.Sprintf("i%d", s.nextID),
		Name:      req.Name,
		Loaded:    time.Now(),
		Agents:    in.NumAgents(),
		seq:       s.nextID,
		sess:      sess,
		xmemo:     s.obs.newXMemo(),
		oblivious: req.CollaborationOblivious,
		workers:   req.Workers,
	}
	s.instances[m.ID] = m
	s.obs.instances.Set(float64(len(s.instances)))
	c := s.cluster
	s.mu.Unlock()
	s.walAppend(walRecLoad, m.ID, walLoad{
		Seq: m.seq, Name: m.Name, Loaded: m.Loaded, Instance: raw,
		CollaborationOblivious: m.oblivious, Workers: m.workers,
	})
	if c != nil {
		// Replication is availability, not correctness: a dead worker is
		// healed by the readmission path, so a load succeeds regardless.
		c.replicateLoad(m.ID, raw, &req)
	}
	s.commitMu.RUnlock()
	s.maybeSnapshot()
	s.logf("loaded instance %s (%q): %v", m.ID, m.Name, in.Stats())
	writeJSON(w, http.StatusCreated, s.describe(m))
	sp.Phase("encode")
}

func (s *server) lookup(r *http.Request) (*managed, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.instances[r.PathValue("id")]
	return m, ok
}

func (s *server) describe(m *managed) instanceInfo {
	in := m.sess.Instance()
	return instanceInfo{
		ID: m.ID, Name: m.Name, Loaded: m.Loaded,
		Agents: in.NumAgents(), Resources: in.NumResources(), Parties: in.NumParties(),
		Queries: m.Queries.Load(), Session: m.sess.Stats(),
		Workers: m.sess.Workers(),
	}
}

// sortManaged orders instances by load sequence — the deterministic
// order every listing endpoint reports, independent of map iteration.
func sortManaged(ms []*managed) {
	sort.Slice(ms, func(a, b int) bool { return ms[a].seq < ms[b].seq })
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ms := make([]*managed, 0, len(s.instances))
	for _, m := range s.instances {
		ms = append(ms, m)
	}
	s.mu.Unlock()
	sortManaged(ms)
	out := listResponse{SchemaVersion: httpapi.SchemaVersion, Instances: make([]instanceInfo, len(ms))}
	for i, m := range ms {
		out.Instances[i] = s.describe(m)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(r)
	if !ok {
		apiError(w, httpapi.CodeNotFound, "no such instance")
		return
	}
	writeJSON(w, http.StatusOK, s.describe(m))
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.commitMu.RLock()
	s.mu.Lock()
	m, ok := s.instances[id]
	delete(s.instances, id)
	s.obs.instances.Set(float64(len(s.instances)))
	c := s.cluster
	s.mu.Unlock()
	if ok {
		// Withdraw the session's share of the solve-cache gauges.
		m.sess.SetObs(nil)
		s.walAppend(walRecUnload, id, nil)
		if c != nil {
			c.replicateUnload(id)
		}
	}
	s.commitMu.RUnlock()
	if !ok {
		apiError(w, httpapi.CodeNotFound, "no such instance")
		return
	}
	s.maybeSnapshot()
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	sp := spanOf(r)
	m, ok := s.lookup(r)
	if !ok {
		apiError(w, httpapi.CodeNotFound, "no such instance")
		return
	}
	var req solveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		apiError(w, httpapi.CodeInvalidJSON, "request JSON: %v", err)
		return
	}
	sp.Phase("load")
	if len(req.Queries) == 0 {
		apiError(w, httpapi.CodeInvalidArgument, "empty query batch")
		return
	}
	sp.Phase("validate")
	body, apiErr := s.solveBatch(m, &req, sp)
	if apiErr != nil {
		apiErrorObj(w, apiErr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write means the client has gone
	sp.Phase("encode")
}

// solveBatch runs a batch and encodes its results while holding the
// instance lock: each result's omega is evaluated against the weights its
// X was solved under, the batch observes one consistent instance even
// while other clients patch weights (their patches apply before or after,
// never in between), and an X that aliases session state is formatted
// before a later patch can rewrite it. The response is written after the
// lock is released. An unchanged X is copied from the instance's memo
// instead of formatted again.
func (s *server) solveBatch(m *managed, req *solveRequest, sp *obs.Span) ([]byte, *httpapi.Error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]solveResult, 0, len(req.Queries))
	for qi, q := range req.Queries {
		res, err := s.runQuery(m, q, req.IncludeX)
		if err != nil {
			if apiErr, ok := err.(*httpapi.Error); ok {
				// Preserve the code AND the retry hint — a degraded
				// cluster's 503 must tell the client when to come back.
				return nil, &httpapi.Error{
					Code:        apiErr.Code,
					Message:     fmt.Sprintf("query %d (%s): %s", qi, q.Kind, apiErr.Message),
					RetryAfterS: apiErr.RetryAfterS,
				}
			}
			return nil, &httpapi.Error{
				Code:    httpapi.CodeInvalidArgument,
				Message: fmt.Sprintf("query %d (%s): %v", qi, q.Kind, err),
			}
		}
		out = append(out, res)
	}
	m.Queries.Add(int64(len(req.Queries)))
	sp.Annotate(fmt.Sprintf("instance=%s queries=%d", m.ID, len(req.Queries)))
	sp.Phase("solve")
	body, err := httpapi.AppendSolveResults(nil, out, m.xmemo)
	if err != nil {
		// ω is +Inf when no party row has a nonempty support, a state
		// loads and topology patches can reach; JSON has no such number.
		return nil, &httpapi.Error{
			Code:    httpapi.CodeInvalidArgument,
			Message: fmt.Sprintf("results are not representable in JSON: %v", err),
		}
	}
	return body, nil
}

// runQuery executes one query; the caller holds m.mu. In cluster mode,
// safe and average queries fan out to the partition owners.
func (s *server) runQuery(m *managed, q solveQuery, includeX bool) (solveResult, error) {
	in := m.sess.Instance()
	start := time.Now()
	res := solveResult{Kind: q.Kind}
	switch q.Kind {
	case "average", "certificate":
		if q.Radius > maxServedRadius {
			return res, fmt.Errorf("radius %d exceeds the serving cap %d", q.Radius, maxServedRadius)
		}
	case "adaptive":
		if q.MaxRadius > maxServedRadius {
			return res, fmt.Errorf("maxRadius %d exceeds the serving cap %d", q.MaxRadius, maxServedRadius)
		}
	}
	if c := s.getCluster(); c != nil {
		switch q.Kind {
		case "safe", "average", "adaptive":
			return c.runQuery(m, q, includeX)
		}
	}
	switch q.Kind {
	case "safe":
		x := m.sess.Safe()
		res.Omega = in.Objective(x)
		if includeX {
			res.X = x
		}
	case "average":
		avg, err := m.sess.LocalAverage(q.Radius)
		if err != nil {
			return res, err
		}
		res.Radius = q.Radius
		res.Omega = in.Objective(avg.X)
		res.PartyBound, res.ResourceBound = avg.PartyBound, avg.ResourceBound
		res.Certificate = avg.RatioCertificate()
		res.LocalLPs, res.SolvesAvoided = avg.LocalLPs, avg.SolvesAvoided
		if includeX {
			res.X = avg.X
		}
	case "adaptive":
		ad, err := m.sess.Adaptive(q.Target, q.MaxRadius)
		if err != nil {
			return res, err
		}
		res.Radius = ad.Radius
		res.Omega = in.Objective(ad.X)
		res.PartyBound, res.ResourceBound = ad.PartyBound, ad.ResourceBound
		res.Certificate = ad.RatioCertificate()
		res.Achieved = &ad.Achieved
		res.LocalLPs, res.SolvesAvoided = ad.LocalLPs, ad.SolvesAvoided
		if includeX {
			res.X = ad.X
		}
	case "certificate":
		pb, rb, err := m.sess.Certificate(q.Radius)
		if err != nil {
			return res, err
		}
		res.Radius = q.Radius
		res.PartyBound, res.ResourceBound = pb, rb
		res.Certificate = pb * rb
	default:
		return res, fmt.Errorf("unknown kind %q (want safe, average, adaptive or certificate)", q.Kind)
	}
	res.Micros = time.Since(start).Microseconds()
	return res, nil
}

func (s *server) handleWeights(w http.ResponseWriter, r *http.Request) {
	sp := spanOf(r)
	m, ok := s.lookup(r)
	if !ok {
		apiError(w, httpapi.CodeNotFound, "no such instance")
		return
	}
	var req weightsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		apiError(w, httpapi.CodeInvalidJSON, "request JSON: %v", err)
		return
	}
	sp.Phase("load")
	deltas := weightDeltas(&req)
	if len(deltas) == 0 {
		apiError(w, httpapi.CodeInvalidArgument, "empty weight patch")
		return
	}
	if len(deltas) > maxPatchEntries {
		s.reject(w, httpapi.CodePatchEntries, "patch has %d entries, cap is %d", len(deltas), maxPatchEntries)
		return
	}
	sp.Phase("validate")
	c := s.getCluster()
	// commitMu (shared) then the per-instance linearisation lock: the
	// apply, the WAL append and the worker fan-out happen as one commit,
	// so every replica — disk and worker — sees patches in one global
	// order. The snapshot check runs after both unlock (LIFO defers).
	defer s.maybeSnapshot()
	s.commitMu.RLock()
	defer s.commitMu.RUnlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	if err := m.sess.UpdateWeights(deltas); err != nil {
		apiError(w, httpapi.CodeInvalidArgument, "%v", err)
		return
	}
	s.walAppend(walRecWeights, m.ID, &req)
	if c != nil {
		c.replicateWeights(m, &req)
	}
	sp.Phase("solve")
	writeJSON(w, http.StatusOK, weightsResponse{
		Applied: len(deltas),
		Micros:  time.Since(start).Microseconds(),
		Session: m.sess.Stats(),
	})
	sp.Phase("encode")
}

func topoUpdate(spec topoOpSpec) (maxminlp.TopoUpdate, error) {
	party := false
	switch spec.Kind {
	case "", "resource":
	case "party":
		party = true
	default:
		return maxminlp.TopoUpdate{}, fmt.Errorf("unknown kind %q (want resource or party)", spec.Kind)
	}
	switch spec.Op {
	case "addAgent":
		return maxminlp.AddAgent(), nil
	case "removeAgent":
		return maxminlp.RemoveAgent(spec.Agent), nil
	case "addEdge":
		if party {
			return maxminlp.AddPartyEdge(spec.Row, spec.Agent, spec.Coeff), nil
		}
		return maxminlp.AddResourceEdge(spec.Row, spec.Agent, spec.Coeff), nil
	case "removeEdge":
		if party {
			return maxminlp.RemovePartyEdge(spec.Row, spec.Agent), nil
		}
		return maxminlp.RemoveResourceEdge(spec.Row, spec.Agent), nil
	default:
		return maxminlp.TopoUpdate{}, fmt.Errorf("unknown op %q (want addAgent, removeAgent, addEdge or removeEdge)", spec.Op)
	}
}

func (s *server) handleTopology(w http.ResponseWriter, r *http.Request) {
	sp := spanOf(r)
	m, ok := s.lookup(r)
	if !ok {
		apiError(w, httpapi.CodeNotFound, "no such instance")
		return
	}
	var req topologyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		apiError(w, httpapi.CodeInvalidJSON, "request JSON: %v", err)
		return
	}
	sp.Phase("load")
	if len(req.Ops) == 0 {
		apiError(w, httpapi.CodeInvalidArgument, "empty topology patch")
		return
	}
	if len(req.Ops) > maxPatchEntries {
		s.reject(w, httpapi.CodeTopoOps, "patch has %d ops, cap is %d", len(req.Ops), maxPatchEntries)
		return
	}
	ups := make([]maxminlp.TopoUpdate, len(req.Ops))
	adds := 0
	for i, spec := range req.Ops {
		up, err := topoUpdate(spec)
		if err != nil {
			apiError(w, httpapi.CodeInvalidArgument, "op %d: %v", i, err)
			return
		}
		if up.Op == maxminlp.TopoAddAgent {
			adds++
		}
		ups[i] = up
	}
	// The same linearisation lock as solves and weight patches: the
	// batch applies atomically between any two solve batches. commitMu
	// (shared) makes the apply + WAL append + fan-out one commit.
	c := s.getCluster()
	defer s.maybeSnapshot()
	s.commitMu.RLock()
	defer s.commitMu.RUnlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	in := m.sess.Instance()
	if n := in.NumAgents(); n+adds > maxServedAgents {
		s.reject(w, httpapi.CodeAgentGrowth, "instance would grow to %d agents, cap is %d", n+adds, maxServedAgents)
		return
	}
	// Row growth: only an addEdge whose row is at or beyond the current
	// count of its relation can create rows, so counting those bounds
	// the batch's row growth from above.
	rowAdds := 0
	for _, up := range ups {
		if up.Op == maxminlp.TopoAddEdge &&
			((up.Party && up.Row >= in.NumParties()) || (!up.Party && up.Row >= in.NumResources())) {
			rowAdds++
		}
	}
	if rows := in.NumResources() + in.NumParties(); rows+rowAdds > maxServedRows {
		s.reject(w, httpapi.CodeRowGrowth, "instance would grow to %d rows, cap is %d", rows+rowAdds, maxServedRows)
		return
	}
	sp.Phase("validate")
	start := time.Now()
	diff, err := m.sess.UpdateTopology(ups)
	if err != nil {
		apiError(w, httpapi.CodeInvalidArgument, "%v", err)
		return
	}
	s.walAppend(walRecTopology, m.ID, &req)
	if c != nil {
		c.replicateTopology(m, &req)
	}
	sp.Phase("solve")
	s.logf("instance %s topology: %d ops, %d agents (+%d/-%d)",
		m.ID, len(ups), diff.NumAgents, len(diff.AddedAgents), len(diff.RemovedAgents))
	writeJSON(w, http.StatusOK, topologyResponse{
		Applied:       len(ups),
		Agents:        diff.NumAgents,
		AddedAgents:   diff.AddedAgents,
		RemovedAgents: diff.RemovedAgents,
		Micros:        time.Since(start).Microseconds(),
		Session:       m.sess.Stats(),
	})
	sp.Phase("encode")
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.instances)
	c := s.cluster
	s.mu.Unlock()
	resp := healthResponse{
		Status: "ok", Uptime: time.Since(s.started).Round(time.Millisecond).String(), Instances: n,
	}
	if s.recovering.Load() {
		resp.Status = "recovering"
	}
	if c != nil {
		resp.Role = "coordinator"
		resp.Workers = c.liveWorkers()
	} else if s.isCoordinator {
		resp.Role = "coordinator"
	}
	writeJSON(w, http.StatusOK, resp)
}

// reject refuses a request at a serving cap: 413, a Retry-After hint
// (the caps shed load; a retry with a smaller request, or against a
// less loaded deployment, can succeed), and a code-labelled rejection
// metric so cap pressure is visible before clients complain.
func (s *server) reject(w http.ResponseWriter, code, format string, args ...any) {
	s.obs.rejected(code).Inc()
	w.Header().Set("Retry-After", "60")
	writeJSON(w, httpapi.Status(code), httpapi.ErrorEnvelope{Error: &httpapi.Error{
		Code: code, Message: fmt.Sprintf(format, args...), RetryAfterS: 60,
	}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("mmlpd: encode response: %v", err)
	}
}

// apiError writes the structured error envelope
// {"error":{"code","message","retry_after_s"}}; the status derives from
// the machine-readable code.
func apiError(w http.ResponseWriter, code, format string, args ...any) {
	writeJSON(w, httpapi.Status(code), httpapi.ErrorEnvelope{Error: &httpapi.Error{
		Code: code, Message: fmt.Sprintf(format, args...),
	}})
}

// apiErrorObj writes a pre-built error, preserving its retry hint in
// both the envelope and the Retry-After header — degraded and
// recovering responses always carry the structured envelope, never a
// bare status.
func apiErrorObj(w http.ResponseWriter, e *httpapi.Error) {
	if e.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterS))
	}
	writeJSON(w, httpapi.Status(e.Code), httpapi.ErrorEnvelope{Error: e})
}

// getCluster reads the cluster pointer race-free; it is nil until the
// boot sequence installs it with setCluster.
func (s *server) getCluster() *cluster {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cluster
}

func (s *server) setCluster(c *cluster) {
	s.mu.Lock()
	s.cluster = c
	s.mu.Unlock()
}
