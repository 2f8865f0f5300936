package main

import (
	"cmp"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"maxminlp"
	"maxminlp/internal/dist"
	"maxminlp/internal/hypergraph"
	"maxminlp/internal/mmlp"
	"maxminlp/internal/obs"
)

// layers holds per-layer metrics by name.
type layers map[string]float64

// phaseNames are the Solver's averaging-pass phases, in pipeline order.
var phaseNames = []string{"fingerprint", "group", "lp_solve", "accumulate"}

// counters is a snapshot of the solve-pipeline metrics the Solver
// records once SetObs attaches them: exact sums and counts, never
// bucket-interpolated quantiles.
type counters struct {
	phase                       [4]float64 // seconds, in phaseNames order
	hits, misses, resolved, inv int64
	lpSolves, pivots            int64
	rowsSum                     float64
	rowsCount                   int64
	steals, parks               int64
}

func snapshot(m *obs.SolveMetrics) counters {
	return counters{
		phase: [4]float64{
			m.PhaseFingerprint.Sum(), m.PhaseGroup.Sum(), m.PhaseLPSolve.Sum(), m.PhaseAccumulate.Sum(),
		},
		hits: m.CacheHits.Value(), misses: m.CacheMisses.Value(),
		resolved: m.AgentsResolved.Value(),
		inv:      m.WeightInvalidations.Value() + m.TopoInvalidations.Value(),
		lpSolves: m.LP.Solves.Value(), pivots: m.LP.Pivots.Value(),
		rowsSum: m.LP.Rows.Sum(), rowsCount: m.LP.Rows.Count(),
		steals: m.Sched.Steals.Value(), parks: m.Sched.Parks.Value(),
	}
}

// replayCore replays the trail in-process against a maxminlp.Solver
// with metrics attached, timing UpdateWeights/UpdateTopology and
// LocalAverage from outside and reading the Solver's phase sums and
// counters. core.other_ms is the residual of core.solve_ms after the
// four phases, so the phases and other sum to core.solve_ms exactly.
func replayCore(w *workload, initial *mmlp.Instance, prime *op, trail []step) (layers, error) {
	sess := maxminlp.NewSolver(initial, maxminlp.GraphOptions{})
	if prime != nil {
		if _, err := sess.UpdateTopology(prime.topo); err != nil {
			return nil, err
		}
	}
	// Warm the session as the daemon's set-up did (its cold solve).
	if err := solveBatch(sess, w, nil); err != nil {
		return nil, err
	}
	sm := maxminlp.NewSolveMetrics(maxminlp.NewMetricsRegistry())
	sess.SetObs(sm)
	before := snapshot(sm)
	var update, solve time.Duration
	for _, s := range trail {
		if s.op != nil {
			t := time.Now()
			var err error
			if s.op.weights != nil {
				err = sess.UpdateWeights(s.op.deltas())
			} else {
				_, err = sess.UpdateTopology(s.op.topo)
			}
			update += time.Since(t)
			if err != nil {
				return nil, err
			}
		}
		if s.solve {
			if err := solveBatch(sess, w, &solve); err != nil {
				return nil, err
			}
		}
	}
	after := snapshot(sm)
	n := float64(len(trail))
	l := layers{
		"core.update_ms": ms(update) / n,
		"core.solve_ms":  ms(solve) / n,
	}
	var phases float64
	for i, p := range phaseNames {
		v := (after.phase[i] - before.phase[i]) * 1e3 / n
		l["core."+p+"_ms"] = v
		phases += v
	}
	l["core.other_ms"] = l["core.solve_ms"] - phases
	l["core.resolved_per_op"] = float64(after.resolved-before.resolved) / n
	l["core.invalidated_balls_per_op"] = float64(after.inv-before.inv) / n
	hits, misses := after.hits-before.hits, after.misses-before.misses
	l["core.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	pivots := float64(after.pivots - before.pivots)
	l["lp.solves_per_op"] = float64(after.lpSolves-before.lpSolves) / n
	l["lp.pivots_per_op"] = pivots / n
	l["lp.ns_per_pivot"] = ratio((after.phase[2]-before.phase[2])*1e9, pivots)
	l["lp.rows_mean"] = ratio(after.rowsSum-before.rowsSum, float64(after.rowsCount-before.rowsCount))
	l["sched.steals_per_op"] = float64(after.steals-before.steals) / n
	l["sched.parks_per_op"] = float64(after.parks-before.parks) / n
	return l, nil
}

// solveBatch runs the workload's queries on the session, adding the
// LocalAverage time to avg when it is non-nil.
func solveBatch(sess *maxminlp.Solver, w *workload, avg *time.Duration) error {
	for _, q := range w.queries {
		var err error
		switch q.Kind {
		case "safe":
			sess.Safe()
		case "average":
			t := time.Now()
			_, err = sess.LocalAverage(q.Radius)
			if avg != nil {
				*avg += time.Since(t)
			}
		case "certificate":
			_, _, err = sess.Certificate(q.Radius)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// replayTopo replays the structural patches of the trail directly on the
// model and hypergraph layers: Instance.ApplyTopo, then CSR, Graph and
// the workload-radius BallIndex PatchTopo, as the session chains them.
func replayTopo(w *workload, initial *mmlp.Instance, prime *op, trail []step) (layers, error) {
	in := initial
	g := hypergraph.FromInstance(in, hypergraph.Options{})
	csr := g.CSR()
	bi := g.BallIndex(w.radius, runtime.GOMAXPROCS(0))
	var apply, patch time.Duration
	balls, ops := 0, 0
	run := func(o *op) error {
		t := time.Now()
		next, d, err := in.ApplyTopo(o.topo)
		t1 := time.Now()
		if err != nil {
			return err
		}
		csr = csr.PatchTopo(next, d)
		g = g.PatchTopo(csr, d.Touched)
		var dirty []int32
		bi, dirty, _ = bi.PatchTopo(g, d.Touched)
		apply += t1.Sub(t)
		patch += time.Since(t1)
		balls += len(dirty)
		in = next
		return nil
	}
	if prime != nil {
		if err := run(prime); err != nil {
			return nil, err
		}
		apply, patch, balls = 0, 0, 0
	}
	for _, s := range trail {
		if s.op != nil && s.op.topo != nil {
			if err := run(s.op); err != nil {
				return nil, err
			}
		}
		ops++
	}
	n := float64(max(ops, 1))
	return layers{
		"mmlp.apply_topo_ms":              ms(apply) / n,
		"hypergraph.patch_ms":             ms(patch) / n,
		"hypergraph.balls_patched_per_op": float64(balls) / n,
	}, nil
}

// timedTransport measures how long a partition member blocks in each
// round exchange: the barrier wait plus the wire transfer.
type timedTransport struct {
	dist.Transport
	wait time.Duration
}

func (t *timedTransport) Exchange(out [][]byte) ([][]byte, error) {
	start := time.Now()
	in, err := t.Transport.Exchange(out)
	t.wait += time.Since(start)
	return in, err
}

// replayDist replays the trail's patches and solves on the cluster's own
// code path in-process: a session-backed dist.Network resynced after
// every patch and two partition members running RunPartitioned over a
// loopback TCP mesh, exactly as the workers do. It returns the dist
// layer's per-op counts and the final merged X.
func replayDist(w *workload, initial *mmlp.Instance, trail []step) (layers, []float64, error) {
	const members = 2
	sess := maxminlp.NewSolver(initial, maxminlp.GraphOptions{})
	nw, err := maxminlp.NewSessionNetwork(sess)
	if err != nil {
		return nil, nil, err
	}
	mesh, err := loopbackMesh(members)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		for _, t := range mesh {
			t.Close()
		}
	}()
	var rounds, messages, records, solves int
	var wait time.Duration
	var x []float64
	for _, s := range trail {
		if s.op != nil {
			if err := sess.UpdateWeights(s.op.deltas()); err != nil {
				return nil, nil, err
			}
			if err := nw.Resync(); err != nil {
				return nil, nil, err
			}
		}
		if !s.solve {
			continue
		}
		parts := make([]*dist.PartialTrace, members)
		errs := make([]error, members)
		var wg sync.WaitGroup
		for i := range members {
			wg.Add(1)
			go func() {
				defer wg.Done()
				parts[i], errs[i] = nw.RunPartitioned(dist.AverageProtocol{Radius: w.radius},
					dist.Partition{Self: i, Members: members}, mesh[i])
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
		tr, err := dist.MergeParts("average", sess.Instance().NumAgents(), parts)
		if err != nil {
			return nil, nil, err
		}
		rounds += tr.Rounds
		messages += tr.Messages
		records += tr.Payload
		solves++
		x = tr.X
	}
	for _, t := range mesh {
		wait += t.wait
	}
	n := float64(max(len(trail), 1))
	return layers{
		"dist.rounds_per_op":          float64(rounds) / n,
		"dist.messages_per_op":        float64(messages) / n,
		"dist.records_per_op":         float64(records) / n,
		"dist.barrier_wait_ms_per_op": ms(wait) / n,
	}, x, nil
}

// loopbackMesh builds a TCP mesh of the given size on 127.0.0.1, each
// member wrapped to time its exchanges.
func loopbackMesh(members int) ([]*timedTransport, error) {
	lns := make([]net.Listener, members)
	addrs := make([]string, members)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	meshes := make([]*dist.TCPMesh, members)
	errs := make([]error, members)
	var wg sync.WaitGroup
	for i := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			meshes[i], errs[i] = dist.NewTCPMesh(i, addrs, lns[i])
		}()
	}
	wg.Wait()
	for _, ln := range lns {
		ln.Close()
	}
	out := make([]*timedTransport, members)
	var first error
	for i, m := range meshes {
		if errs[i] != nil {
			first = cmp.Or(first, fmt.Errorf("mesh member %d: %w", i, errs[i]))
			continue
		}
		out[i] = &timedTransport{Transport: m}
	}
	if first != nil {
		for _, t := range out {
			if t != nil {
				t.Close()
			}
		}
		return nil, first
	}
	return out, nil
}

// checkDist requires the partitioned replay's final X to equal, bit for
// bit, LocalAverage of a Solver that took the same patches.
func checkDist(w *workload, initial *mmlp.Instance, trail []step, x []float64) error {
	sess := maxminlp.NewSolver(initial, maxminlp.GraphOptions{})
	for _, s := range trail {
		if s.op != nil {
			if err := sess.UpdateWeights(s.op.deltas()); err != nil {
				return err
			}
		}
	}
	avg, err := sess.LocalAverage(w.radius)
	if err != nil {
		return err
	}
	if !slices.EqualFunc(avg.X, x, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		return fmt.Errorf("partitioned replay X differs from the Solver's LocalAverage")
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
