package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"maxminlp/internal/httpapi"
	"maxminlp/internal/obs"
)

// serverObs bundles the daemon's always-on observability: one metric
// registry shared by every session, the request tracer, and the
// counters the handlers record directly. mmlpd never runs with metrics
// disabled — the registry is cheap and /metrics must always answer —
// so unlike the library seams nothing here is nil.
type serverObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	solve  *obs.SolveMetrics // attached to every loaded session

	// endpoints in registration order with their latency histograms,
	// for the /v1/stats per-endpoint summaries.
	endpoints []string
	latency   map[string]*obs.Histogram

	panics    *obs.Counter
	slowReqs  *obs.Counter
	instances *obs.Gauge

	// Solve responses whose X was copied from the instance's memo
	// rather than formatted, and those formatted afresh.
	xMemoHit, xMemoMiss *obs.Counter

	// Durability and self-healing.
	walAppends    *obs.Counter
	walFsync      *obs.Histogram
	recoverySec   *obs.Gauge
	reconnects    *obs.Counter
	workersInSync *obs.Gauge

	// Go runtime stats, refreshed at scrape time.
	uptime     *obs.Gauge
	goroutines *obs.Gauge
	heapBytes  *obs.Gauge
	heapObjs   *obs.Gauge
	totalAlloc *obs.Gauge
}

func newServerObs() *serverObs {
	reg := obs.NewRegistry()
	return &serverObs{
		reg:     reg,
		tracer:  obs.NewTracer(1024),
		solve:   obs.NewSolveMetrics(reg),
		latency: make(map[string]*obs.Histogram),
		panics: reg.Counter("mmlpd_panics_recovered_total",
			"Panics recovered while validating untrusted instance specs."),
		slowReqs: reg.Counter("mmlpd_slow_requests_total",
			"Requests slower than the slow-query threshold."),
		instances: reg.Gauge("mmlpd_instances", "Instances currently loaded."),
		xMemoHit: reg.Counter("mmlpd_solve_x_memo_total",
			"Solve-response X vectors by memo outcome: copied (hit) or formatted (miss).",
			obs.L("result", "hit")),
		xMemoMiss: reg.Counter("mmlpd_solve_x_memo_total",
			"Solve-response X vectors by memo outcome: copied (hit) or formatted (miss).",
			obs.L("result", "miss")),
		walAppends: reg.Counter("mmlpd_wal_appends_total",
			"Records appended to the write-ahead log."),
		walFsync: reg.Histogram("mmlpd_wal_fsync_seconds",
			"WAL fsync latency.", obs.DefLatencyBuckets),
		recoverySec: reg.Gauge("mmlpd_recovery_replay_seconds",
			"Wall time the last WAL replay took at startup."),
		reconnects: reg.Counter("mmlpd_worker_reconnects_total",
			"Workers readmitted after the cluster first formed."),
		workersInSync: reg.Gauge("mmlpd_workers_in_sync",
			"Workers currently admitted to the cluster roster."),
		uptime: reg.Gauge("mmlpd_uptime_seconds", "Seconds since the daemon started."),
		goroutines: reg.Gauge("go_goroutines",
			"Number of goroutines that currently exist."),
		heapBytes: reg.Gauge("go_memstats_heap_alloc_bytes",
			"Bytes of allocated heap objects."),
		heapObjs: reg.Gauge("go_memstats_heap_objects",
			"Number of allocated heap objects."),
		totalAlloc: reg.Gauge("go_memstats_alloc_bytes_total",
			"Cumulative bytes allocated for heap objects."),
	}
}

// newXMemo returns an empty solve-response memo counting into the
// daemon's metrics.
func (o *serverObs) newXMemo() *httpapi.XMemo {
	return &httpapi.XMemo{Hit: o.xMemoHit, Miss: o.xMemoMiss}
}

// requests returns the request counter for one endpoint/status pair.
// Registration is idempotent, so looking it up per response is fine at
// HTTP frequency (the solver hot paths never come through here).
func (o *serverObs) requests(endpoint string, code int) *obs.Counter {
	return o.reg.Counter("mmlpd_http_requests_total",
		"HTTP requests served, by endpoint and status code.",
		obs.L("endpoint", endpoint), obs.L("code", strconv.Itoa(code)))
}

// rejected returns the rejection counter for one serving-cap reason
// ("instance_too_large", "patch_entries", "topo_ops", "agent_growth",
// "row_growth").
func (o *serverObs) rejected(reason string) *obs.Counter {
	return o.reg.Counter("mmlpd_rejections_total",
		"Requests rejected by serving caps, by reason.", obs.L("reason", reason))
}

// codeWriter captures the status code a handler writes.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

type spanCtxKey struct{}

// spanOf returns the request's trace span; nil (a no-op span) when the
// request did not come through wrap.
func spanOf(r *http.Request) *obs.Span {
	sp, _ := r.Context().Value(spanCtxKey{}).(*obs.Span)
	return sp
}

// wrap instruments one endpoint: a per-request trace span (handlers
// mark phases on it via spanOf), a latency histogram, and a request
// counter labelled with the response code.
func (s *server) wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	o := s.obs
	lat := o.reg.Histogram("mmlpd_http_request_seconds",
		"HTTP request latency by endpoint.", obs.DefLatencyBuckets,
		obs.L("endpoint", endpoint))
	o.endpoints = append(o.endpoints, endpoint)
	o.latency[endpoint] = lat
	return func(w http.ResponseWriter, r *http.Request) {
		// While the daemon replays its WAL (or a coordinator waits for
		// its cluster), every API request gets an explicit "come back
		// shortly" — only liveness and metrics answer during recovery.
		if s.recovering.Load() && endpoint != "healthz" && endpoint != "metrics" {
			apiErrorObj(w, &httpapi.Error{
				Code:        httpapi.CodeRecovering,
				Message:     "recovering: replaying durable state",
				RetryAfterS: 1,
			})
			o.requests(endpoint, httpapi.Status(httpapi.CodeRecovering)).Inc()
			return
		}
		sp := o.tracer.StartSpan(endpoint)
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		h(cw, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, sp)))
		sp.Annotate(fmt.Sprintf("code=%d", cw.code))
		lat.ObserveDuration(sp.End())
		o.requests(endpoint, cw.code).Inc()
	}
}

// setSlow arms the slow-query log: spans slower than d are logged and
// counted. d <= 0 disables it.
func (s *server) setSlow(d time.Duration) {
	s.obs.tracer.SetSlow(d, func(e obs.Event) {
		s.obs.slowReqs.Inc()
		s.logf("mmlpd: slow request %s (%s): %.1fms",
			e.Name, e.Note, float64(e.DurNs)/1e6)
	})
}

// handleMetrics serves the Prometheus text exposition of everything the
// daemon records, refreshing the Go runtime gauges first.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	o := s.obs
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.goroutines.Set(float64(runtime.NumGoroutine()))
	o.heapBytes.Set(float64(ms.HeapAlloc))
	o.heapObjs.Set(float64(ms.HeapObjects))
	o.totalAlloc.Set(float64(ms.TotalAlloc))
	o.uptime.Set(time.Since(s.started).Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := o.reg.WritePrometheus(w); err != nil {
		s.logf("mmlpd: write /metrics: %v", err)
	}
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ms := make([]*managed, 0, len(s.instances))
	for _, m := range s.instances {
		ms = append(ms, m)
	}
	s.mu.Unlock()
	sortManaged(ms)
	infos := make([]instanceInfo, len(ms))
	for i, m := range ms {
		infos[i] = s.describe(m)
	}
	o, sm := s.obs, s.obs.solve
	http_ := make(map[string]obs.HistogramSnapshot, len(o.endpoints))
	for _, ep := range o.endpoints {
		http_[ep] = o.latency[ep].Snapshot()
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Uptime:    time.Since(s.started).Round(time.Millisecond).String(),
		Instances: infos,
		Solve: solveStats{
			Phases: map[string]obs.HistogramSnapshot{
				"fingerprint": sm.PhaseFingerprint.Snapshot(),
				"group":       sm.PhaseGroup.Snapshot(),
				"lp_solve":    sm.PhaseLPSolve.Snapshot(),
				"accumulate":  sm.PhaseAccumulate.Snapshot(),
			},
			Updates: map[string]obs.HistogramSnapshot{
				"weights":  sm.WeightUpdateSeconds.Snapshot(),
				"topology": sm.TopoUpdateSeconds.Snapshot(),
			},
			Passes: map[string]int64{
				"full":        sm.FullSolves.Value(),
				"incremental": sm.IncrementalSolves.Value(),
				"warm":        sm.WarmHits.Value(),
			},
			Cache: map[string]int64{
				"hit":  sm.CacheHits.Value(),
				"miss": sm.CacheMisses.Value(),
			},
			AgentsResolved:      sm.AgentsResolved.Value(),
			LPSolves:            sm.LP.Solves.Value(),
			LPPivots:            sm.LP.Pivots.Value(),
			Presolve:            s.presolve,
			PresolveRowsDropped: sm.PresolveRowsDropped.Value(),
		},
		HTTP:            http_,
		PanicsRecovered: o.panics.Value(),
		SlowRequests:    o.slowReqs.Value(),
	})
}
