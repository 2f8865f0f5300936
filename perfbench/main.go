// Command perfbench is the end-to-end benchmark of the mmlpd serving
// daemon. It starts real mmlpd processes, drives them through
// internal/mmlpclient with a
// seeded first-seen operation stream, verifies every served answer
// against a model instance kept in step with every patch, and prints one
// record whose last line is the JSON result:
//
//	perfbench -workload weights-firstseen -seed 1 -seconds 20 -trace 0
//
// With -trace 1 it measures each layer from outside instead: the
// benchmark's timing of each client call, /metrics deltas, and an
// in-process replay of the same stream against maxminlp.Solver,
// mmlp.Instance, hypergraph and dist. run.sh builds the daemon and this
// program from source and runs it; README.md defines every metric.
package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	bin     string
	runDir  string
}

// distPrefix is how many ops of the trail the dist replay runs.
const distPrefix = 20

// setups is how many times a run sets up; setup_s is their median.
const setups = 15

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed of the instance and the op stream")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 measures per-layer metrics instead of end-to-end ones")
	bin := flag.String("mmlpd", ".bench_build/bin/mmlpd", "mmlpd binary")
	runDir := flag.String("run-dir", ".bench_build/run", "scratch directory for WAL data")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()
	cfg := &config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, runDir: *runDir}
	res, record, err := run(cfg)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(record)
	fmt.Printf("record %s\n", out)
	out, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(cfg *config) (*result, map[string]any, error) {
	w := cfg.w
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		return nil, nil, err
	}
	// Set up several times and keep the last deployment.
	var r *runner
	var setupS samples
	nSetups := setups
	if cfg.trace {
		nSetups = 1
	}
	for i := 0; i < nSetups; i++ {
		dataDir := ""
		if w.wal {
			dataDir = filepath.Join(cfg.runDir, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), i))
		}
		if r != nil {
			r.close()
		}
		var d time.Duration
		var err error
		if r, d, err = setup(w, cfg.seed, cfg.bin, dataDir); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
	}
	defer r.close()

	dur := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metric{}}
	record := map[string]any{"meta": meta(cfg)}
	if !cfg.trace {
		busy0, steal0 := cpuTicks()
		win := r.measure(dur, false)
		busy1, steal1 := cpuTicks()
		// Share of the host's CPU time the hypervisor gave elsewhere while
		// the window ran: a high value flags a disturbed record.
		record["steal_pct"] = 100 * ratio(steal1-steal0, busy1-busy0)
		if len(win.op) == 0 || len(win.read) == 0 {
			return nil, nil, fmt.Errorf("no completed ops: %v", win.firstErr)
		}
		rss, err := peakRSSMB(r.dep.proc.pid)
		if err != nil {
			return nil, nil, err
		}
		put := func(name string, v float64, unit string, n int) {
			res.Metrics[name] = metric{v, unit}
			record[name] = map[string]any{"value": v, "unit": unit, "n": n}
		}
		put("setup_s", median(setupS), "s", len(setupS))
		record["setup_samples_s"] = setupS
		put("op_p50_ms", win.op.sliced(0.5), "ms", len(win.op))
		put("op_p90_ms", win.op.sliced(0.9), "ms", len(win.op))
		// Over the whole window, so every stall and WAL snapshot counts.
		put("ops_per_s", float64(len(win.op))/win.elapsed.Seconds(), "1/s", len(win.op))
		put("read_p50_ms", win.read.sliced(0.5), "ms", len(win.read))
		put("read_p90_ms", win.read.sliced(0.9), "ms", len(win.read))
		put("rss_mb", rss, "MiB", 1)
		// The record also keeps the plain whole-window quantiles, and the
		// p99s where ten samples lie beyond them.
		record["window_op_p50_ms"] = win.op.quantile(0.5)
		record["window_read_p50_ms"] = win.read.quantile(0.5)
		if win.op.supports(0.99) {
			record["op_p99_ms"] = map[string]any{"value": win.op.quantile(0.99), "unit": "ms", "n": len(win.op)}
		}
		if win.read.supports(0.99) {
			record["read_p99_ms"] = map[string]any{"value": win.read.quantile(0.99), "unit": "ms", "n": len(win.read)}
		}
	} else {
		l, err := traced(cfg, r)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range perLayer {
			v := l[p.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[p.name] = metric{v, p.unit}
		}
	}

	finalErr := cmp.Or(r.finalCheck(), r.distErr)
	for _, win := range r.windows {
		res.Attempted += win.attempted
		res.Failed += win.failed
		if win.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: first failure:", win.firstErr)
		}
	}
	res.Attempted++ // the final bit-identity check
	if finalErr != nil {
		res.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: final check:", finalErr)
	}
	res.Correct = res.Failed == 0
	record["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	if mb, err := peakRSSMB(os.Getpid()); err == nil {
		record["perfbench_rss_mb"] = mb
	}
	return res, record, nil
}

// layerSpec names one per-layer metric and its unit.
type layerSpec struct{ name, unit string }

// perLayer is every per-layer metric a traced run prints, in the order
// of BENCHMARK.json. Metrics of layers a workload does not run read 0.
var perLayer = []layerSpec{
	{"mmlpd.weights_ms", "ms"}, {"mmlpd.topology_ms", "ms"}, {"mmlpd.solve_ms", "ms"},
	{"mmlpd.server_ms", "ms"}, {"mmlpd.overhead_ms", "ms"}, {"mmlpd.resp_bytes", "B"},
	{"mmlpd.max_rate_rps", "1/s"},
	{"core.update_ms", "ms"}, {"core.solve_ms", "ms"},
	{"core.fingerprint_ms", "ms"}, {"core.group_ms", "ms"}, {"core.lp_solve_ms", "ms"},
	{"core.accumulate_ms", "ms"}, {"core.other_ms", "ms"},
	{"core.resolved_per_op", "count"}, {"core.invalidated_balls_per_op", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"lp.solves_per_op", "count"}, {"lp.pivots_per_op", "count"}, {"lp.ns_per_pivot", "ns"},
	{"lp.rows_mean", "count"},
	{"mmlp.apply_topo_ms", "ms"}, {"hypergraph.patch_ms", "ms"}, {"hypergraph.balls_patched_per_op", "count"},
	{"sched.steals_per_op", "count"}, {"sched.parks_per_op", "count"},
	{"wal.appends_per_op", "count"}, {"wal.fsync_ms_per_op", "ms"}, {"wal.bytes_per_op", "B"},
	{"dist.rounds_per_op", "count"}, {"dist.messages_per_op", "count"}, {"dist.records_per_op", "count"},
	{"dist.barrier_wait_ms_per_op", "ms"},
	{"driver.lag_p99_ms", "ms"}, {"driver.error_rate", "ratio"}, {"trace.overhead_pct", "%"},
}

// traced runs the per-layer measurement: untraced and traced slices
// alternate, so drift over the run cannot pose as tracing overhead;
// each traced slice is bracketed by /metrics scrapes. An open-loop
// workload then climbs the offered-rate ladder. In-process replays of
// the whole trail follow.
func traced(cfg *config, r *runner) (layers, error) {
	w := cfg.w
	dur := time.Duration(cfg.seconds * float64(time.Second))
	part := dur / 2
	if w.open {
		part = dur / 4
	}
	nSlices := max(int(part/time.Second), 1)
	var bases, wins []*window
	scraped := map[string]float64{}
	for range nSlices {
		bases = append(bases, r.measure(part/time.Duration(nSlices), false))
		m0, err := r.dep.scrape()
		if err != nil {
			return nil, err
		}
		wins = append(wins, r.measure(part/time.Duration(nSlices), w.wal))
		m1, err := r.dep.scrape()
		if err != nil {
			return nil, err
		}
		for k, v := range m1 {
			scraped[k] += v - m0[k]
		}
	}
	base, win := merge(bases), merge(wins)
	if len(win.op) == 0 || len(base.op) == 0 {
		return nil, fmt.Errorf("no completed ops: %v", cmp.Or(win.firstErr, base.firstErr))
	}
	ops := float64(len(win.op))
	delta := func(series string) float64 { return scraped[series] }
	l := layers{
		"mmlpd.weights_ms":    win.callPatch.mean(),
		"mmlpd.solve_ms":      win.callRead.mean(),
		"mmlpd.server_ms":     win.serverMs.mean(),
		"mmlpd.resp_bytes":    float64(win.bytes) / ops,
		"wal.appends_per_op":  delta("mmlpd_wal_appends_total") / ops,
		"wal.fsync_ms_per_op": delta("mmlpd_wal_fsync_seconds_sum") * 1e3 / ops,
		"wal.bytes_per_op":    float64(win.walGrowth) / ops,
		"trace.overhead_pct":  (win.op.quantile(0.5)/base.op.quantile(0.5) - 1) * 100,
	}
	if w.churn {
		l["mmlpd.topology_ms"], l["mmlpd.weights_ms"] = l["mmlpd.weights_ms"], 0
	}
	// Client time of an op minus what the daemon reported as its own.
	client := (win.callPatch.mean()*float64(len(win.callPatch)) + win.callRead.mean()*float64(len(win.callRead))) / ops
	l["mmlpd.overhead_ms"] = client - l["mmlpd.server_ms"]
	if w.open {
		l["driver.lag_p99_ms"] = win.lag.quantile(0.99)
		l["mmlpd.max_rate_rps"] = r.ladder(dur - 2*part)
	}

	replayStart := time.Now()
	trail := r.trail
	cl, err := replayCore(w, r.initial, r.prime, trail)
	if err != nil {
		return nil, fmt.Errorf("core replay: %w", err)
	}
	for k, v := range cl {
		l[k] = v
	}
	if w.churn {
		tl, err := replayTopo(w, r.initial, r.prime, trail)
		if err != nil {
			return nil, fmt.Errorf("topology replay: %w", err)
		}
		for k, v := range tl {
			l[k] = v
		}
	}
	// The cluster's partitioned code path replays a prefix of a
	// closed-loop weight stream: each partitioned run of the instance is
	// slow, and the counts per op are the same on every op. Its final X
	// must match a Solver's LocalAverage on the same prefix, bit for bit.
	if !w.churn && !w.open {
		steps := trail[:min(len(trail), distPrefix)]
		dl, x, err := replayDist(w, r.initial, steps)
		if err != nil {
			return nil, fmt.Errorf("dist replay: %w", err)
		}
		for k, v := range dl {
			l[k] = v
		}
		r.distErr = checkDist(w, r.initial, steps, x)
	}
	l["driver.error_rate"] = float64(base.failed+win.failed) / float64(base.attempted+win.attempted)
	fmt.Fprintf(os.Stderr, "perfbench: replayed %d steps in %v\n", len(trail), time.Since(replayStart).Round(time.Millisecond))
	return l, nil
}

// merge pools the samples and counts of several windows.
func merge(ws []*window) *window {
	out := &window{}
	for _, w := range ws {
		out.op = append(out.op, w.op...)
		out.read = append(out.read, w.read...)
		out.callRead = append(out.callRead, w.callRead...)
		out.callPatch = append(out.callPatch, w.callPatch...)
		out.lag = append(out.lag, w.lag...)
		out.serverMs = append(out.serverMs, w.serverMs...)
		out.attempted += w.attempted
		out.failed += w.failed
		out.elapsed += w.elapsed
		out.bytes += w.bytes
		out.walGrowth += w.walGrowth
		out.backlogGrew = out.backlogGrew || w.backlogGrew
		out.firstErr = cmp.Or(out.firstErr, w.firstErr)
	}
	return out
}

// ladder offers the fixed rates in turn and returns the highest one at
// which the read p99 stays within readLimitMs, no request fails and the
// backlog does not grow; a step whose backlog grows counts as failed,
// not as slow, and ends the climb.
func (r *runner) ladder(total time.Duration) float64 {
	const readLimitMs = 5
	step := total / time.Duration(len(r.w.ladder))
	best := 0.0
	for _, rate := range r.w.ladder {
		win := r.openLoop(rate, step)
		ok := !win.backlogGrew && len(win.read) > 0 && win.read.quantile(0.99) <= readLimitMs
		fmt.Fprintf(os.Stderr, "perfbench: ladder %v rps: read p99 %.3f ms (n=%d), backlog grew %v\n",
			rate, win.read.quantile(0.99), len(win.read), win.backlogGrew)
		if !ok {
			break
		}
		best = rate
	}
	return best
}

// meta is the record's provenance, so records are compared only
// like-for-like.
func meta(cfg *config) map[string]any {
	return map[string]any{
		"workload": cfg.w.name, "why": cfg.w.why, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "setups": setups,
		"instance": map[string]any{"torus": cfg.w.dims, "randomWeights": true, "seed": cfg.seed,
			"radius": cfg.w.radius, "queries": cfg.w.queries},
		"host": hostFingerprint(), "num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "source": sourceDigest("."),
	}
}

// hostFingerprint hashes the CPU model, CPU count and kernel release.
func hostFingerprint() string {
	h := sha256.New()
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				io.WriteString(h, line)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Write(b)
	}
	fmt.Fprint(h, runtime.NumCPU())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sourceDigest hashes every Go source and go.mod under root, so a record
// names the exact code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTicks reads the all-CPU total and steal ticks of /proc/stat.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}
