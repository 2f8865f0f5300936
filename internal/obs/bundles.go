package obs

// Bundles group the metrics one subsystem records, resolved from a
// registry once at setup. Every constructor returns nil when the
// registry is nil, and every field of a nil bundle reads as a nil
// metric, so instrumented code holds a possibly-nil bundle and records
// unconditionally.

// LPMetrics is recorded by lp.Workspace at the single point where every
// staged solve completes.
type LPMetrics struct {
	Solves *Counter   // mmlp_lp_solves_total
	Pivots *Counter   // mmlp_lp_pivots_total
	Rows   *Histogram // mmlp_lp_tableau_rows
	Vars   *Histogram // mmlp_lp_tableau_vars
}

// NewLPMetrics registers the LP metrics on r (nil r → nil bundle).
func NewLPMetrics(r *Registry) *LPMetrics {
	if r == nil {
		return nil
	}
	return &LPMetrics{
		Solves: r.Counter("mmlp_lp_solves_total", "Staged simplex solves completed."),
		Pivots: r.Counter("mmlp_lp_pivots_total", "Simplex pivots across all solves."),
		Rows:   r.Histogram("mmlp_lp_tableau_rows", "Constraint rows per staged solve.", DefSizeBuckets),
		Vars:   r.Histogram("mmlp_lp_tableau_vars", "Variables per staged solve.", DefSizeBuckets),
	}
}

// RecordSolve records one completed staged solve.
func (m *LPMetrics) RecordSolve(rows, vars, pivots int) {
	if m == nil {
		return
	}
	m.Solves.Inc()
	m.Pivots.Add(int64(pivots))
	m.Rows.Observe(float64(rows))
	m.Vars.Observe(float64(vars))
}

// SchedMetrics is recorded by users of the internal/sched work-stealing
// pool after each run or phase: how much work migrated between workers,
// how often idle workers parked, and how the tasks spread across
// workers. The pool label separates the solver's task pool from the
// sharded dist engine's.
type SchedMetrics struct {
	Steals      *Counter   // mmlp_sched_steals_total{pool=...}
	Parks       *Counter   // mmlp_sched_parks_total{pool=...}
	WorkerTasks *Histogram // mmlp_sched_worker_tasks{pool=...}
}

// NewSchedMetrics registers the work-stealing scheduler metrics on r
// under the given pool label (nil r → nil bundle).
func NewSchedMetrics(r *Registry, pool string) *SchedMetrics {
	if r == nil {
		return nil
	}
	return &SchedMetrics{
		Steals: r.Counter("mmlp_sched_steals_total",
			"Tasks claimed from another worker's deque.", L("pool", pool)),
		Parks: r.Counter("mmlp_sched_parks_total",
			"Times an idle worker exhausted its spin budget and slept.", L("pool", pool)),
		WorkerTasks: r.Histogram("mmlp_sched_worker_tasks",
			"Tasks executed per worker per run (one observation per worker).",
			DefSizeBuckets, L("pool", pool)),
	}
}

// RecordRun records the scheduler counters of one completed parallel
// run. Nil-safe.
func (m *SchedMetrics) RecordRun(steals, parks int64, workerTasks []int64) {
	if m == nil {
		return
	}
	m.Steals.Add(steals)
	m.Parks.Add(parks)
	for _, t := range workerTasks {
		m.WorkerTasks.Observe(float64(t))
	}
}

// SolveMetrics is recorded by core.Solver across the solve pipeline:
// per-phase latency of the dedup averaging pass, cache effectiveness,
// and the invalidation cost of weight/topology updates.
type SolveMetrics struct {
	// Phase latencies of one averaging pass (full or incremental):
	// fingerprint → cache group/lookup → LP solve of representatives →
	// accumulate combination (10).
	PhaseFingerprint *Histogram // mmlp_solve_phase_seconds{phase="fingerprint"}
	PhaseGroup       *Histogram // {phase="group"}
	PhaseLPSolve     *Histogram // {phase="lp_solve"}
	PhaseAccumulate  *Histogram // {phase="accumulate"}

	FullSolves        *Counter // mmlp_solve_passes_total{kind="full"}
	IncrementalSolves *Counter // {kind="incremental"}
	WarmHits          *Counter // {kind="warm"}

	CacheHits      *Counter // mmlp_solve_cache_total{result="hit"} — ball LPs avoided
	CacheMisses    *Counter // {result="miss"} — ball LPs actually solved
	AgentsResolved *Counter // mmlp_solve_agents_resolved_total

	// Ball-LP cache footprint after each session pass and update, summed
	// over the sessions sharing the bundle.
	CacheEntries  *Gauge // mmlp_solve_cache_entries
	CacheKeyBytes *Gauge // mmlp_solve_cache_key_bytes

	// PresolveRowsDropped counts constraint rows the ball-LP presolve
	// eliminated before fingerprinting; together with the cache series it
	// makes the presolve dedup-hit delta observable on /metrics.
	PresolveRowsDropped *Counter // mmlp_presolve_rows_dropped_total

	WeightUpdateSeconds *Histogram // mmlp_update_seconds{kind="weights"}
	TopoUpdateSeconds   *Histogram // {kind="topology"}
	WeightInvalidations *Counter   // mmlp_update_invalidated_balls_total{kind="weights"}
	TopoInvalidations   *Counter   // {kind="topology"}
	AgentsAdded         *Counter   // mmlp_topo_agents_total{op="added"}
	AgentsRemoved       *Counter   // {op="removed"}

	LP    *LPMetrics
	Sched *SchedMetrics // pool="solver"
}

// NewSolveMetrics registers the solve-pipeline metrics on r (nil r →
// nil bundle).
func NewSolveMetrics(r *Registry) *SolveMetrics {
	if r == nil {
		return nil
	}
	phase := func(p string) *Histogram {
		return r.Histogram("mmlp_solve_phase_seconds",
			"Latency of one solve-pipeline phase within an averaging pass.",
			DefLatencyBuckets, L("phase", p))
	}
	pass := func(k string) *Counter {
		return r.Counter("mmlp_solve_passes_total", "Averaging passes by kind.", L("kind", k))
	}
	return &SolveMetrics{
		PhaseFingerprint: phase("fingerprint"),
		PhaseGroup:       phase("group"),
		PhaseLPSolve:     phase("lp_solve"),
		PhaseAccumulate:  phase("accumulate"),

		FullSolves:        pass("full"),
		IncrementalSolves: pass("incremental"),
		WarmHits:          pass("warm"),

		CacheHits: r.Counter("mmlp_solve_cache_total",
			"Ball-LP cache outcomes: hit = LP avoided by isomorphic-ball dedup, miss = LP solved.",
			L("result", "hit")),
		CacheMisses: r.Counter("mmlp_solve_cache_total",
			"Ball-LP cache outcomes: hit = LP avoided by isomorphic-ball dedup, miss = LP solved.",
			L("result", "miss")),
		AgentsResolved: r.Counter("mmlp_solve_agents_resolved_total",
			"Agents re-solved by incremental passes."),
		CacheEntries: r.Gauge("mmlp_solve_cache_entries",
			"Solved ball LPs held in session caches."),
		CacheKeyBytes: r.Gauge("mmlp_solve_cache_key_bytes",
			"Bytes of canonical keys held in session caches."),
		PresolveRowsDropped: r.Counter("mmlp_presolve_rows_dropped_total",
			"Ball-LP constraint rows eliminated by presolve before fingerprinting."),

		WeightUpdateSeconds: r.Histogram("mmlp_update_seconds",
			"Latency of session mutation calls.", DefLatencyBuckets, L("kind", "weights")),
		TopoUpdateSeconds: r.Histogram("mmlp_update_seconds",
			"Latency of session mutation calls.", DefLatencyBuckets, L("kind", "topology")),
		WeightInvalidations: r.Counter("mmlp_update_invalidated_balls_total",
			"Balls invalidated (marked dirty) by session mutations.", L("kind", "weights")),
		TopoInvalidations: r.Counter("mmlp_update_invalidated_balls_total",
			"Balls invalidated (marked dirty) by session mutations.", L("kind", "topology")),
		AgentsAdded: r.Counter("mmlp_topo_agents_total",
			"Agents added/removed by topology updates.", L("op", "added")),
		AgentsRemoved: r.Counter("mmlp_topo_agents_total",
			"Agents added/removed by topology updates.", L("op", "removed")),

		LP:    NewLPMetrics(r),
		Sched: NewSchedMetrics(r, "solver"),
	}
}

// SchedBundle returns the scheduler sub-bundle, nil-safe.
func (m *SolveMetrics) SchedBundle() *SchedMetrics {
	if m == nil {
		return nil
	}
	return m.Sched
}

// RecordWarmHit counts one query answered entirely from retained state.
// Nil-safe.
func (m *SolveMetrics) RecordWarmHit() {
	if m == nil {
		return
	}
	m.WarmHits.Inc()
}

// PresolveDroppedCounter returns the presolve row-drop counter,
// nil-safe.
func (m *SolveMetrics) PresolveDroppedCounter() *Counter {
	if m == nil {
		return nil
	}
	return m.PresolveRowsDropped
}

// LPBundle returns the LP sub-bundle, nil-safe.
func (m *SolveMetrics) LPBundle() *LPMetrics {
	if m == nil {
		return nil
	}
	return m.LP
}

// DistMetrics is recorded by the internal/dist engines.
type DistMetrics struct {
	Runs          *Counter      // mmlp_dist_runs_total{engine=...} — one per engine via EngineRuns
	Rounds        *Counter      // mmlp_dist_rounds_total
	Messages      *Counter      // mmlp_dist_messages_total
	Records       *Counter      // mmlp_dist_payload_records_total
	RoundMessages *Histogram    // mmlp_dist_round_messages
	BarrierWait   *Histogram    // mmlp_dist_barrier_wait_seconds
	Sched         *SchedMetrics // pool="dist" — sharded engine's steal pool

	reg *Registry
}

// NewDistMetrics registers the dist-engine metrics on r (nil r → nil
// bundle).
func NewDistMetrics(r *Registry) *DistMetrics {
	if r == nil {
		return nil
	}
	return &DistMetrics{
		Rounds:   r.Counter("mmlp_dist_rounds_total", "Synchronous rounds executed across runs."),
		Messages: r.Counter("mmlp_dist_messages_total", "Messages delivered between flood nodes."),
		Records:  r.Counter("mmlp_dist_payload_records_total", "Payload records carried by delivered messages."),
		RoundMessages: r.Histogram("mmlp_dist_round_messages",
			"Messages delivered in one synchronous round.", DefSizeBuckets),
		BarrierWait: r.Histogram("mmlp_dist_barrier_wait_seconds",
			"Time a node or shard waits at the round barrier.", DefLatencyBuckets),
		Sched: NewSchedMetrics(r, "dist"),
		reg:   r,
	}
}

// SchedBundle returns the scheduler sub-bundle, nil-safe.
func (m *DistMetrics) SchedBundle() *SchedMetrics {
	if m == nil {
		return nil
	}
	return m.Sched
}

// EngineRuns returns the per-engine run counter (engine is
// "sequential", "goroutines" or "sharded"). Nil-safe.
func (m *DistMetrics) EngineRuns(engine string) *Counter {
	if m == nil {
		return nil
	}
	return m.reg.Counter("mmlp_dist_runs_total", "Protocol runs by engine.", L("engine", engine))
}
