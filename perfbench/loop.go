package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"maxminlp"
	"maxminlp/internal/httpapi"
	"maxminlp/internal/mmlp"
	"maxminlp/internal/mmlpclient"
)

// meter is the benchmark's HTTP transport: at most two connections (a
// 2-CPU host's core count), response bytes counted, and every body drained on
// close so keep-alive connections are always reused.
type meter struct {
	rt    *http.Transport
	bytes atomic.Int64
}

func newMeter() *meter {
	return &meter{rt: &http.Transport{
		MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true,
	}}
}

func (m *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := m.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, m: m}
	return resp, nil
}

type countedBody struct {
	io.ReadCloser
	m *meter
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.m.bytes.Add(int64(n))
	return n, err
}

func (b *countedBody) Close() error {
	n, _ := io.Copy(io.Discard, b.ReadCloser)
	b.m.bytes.Add(n)
	return b.ReadCloser.Close()
}

// step is one entry of the trail the daemon was driven through, in
// order: a mutation, a solve batch, or (closed loop) both.
type step struct {
	op    *op
	solve bool
}

// runner drives one deployment with one workload's seeded stream and
// keeps the benchmark's model instance in step with every patch.
type runner struct {
	w      *workload
	rng    *rand.Rand // draws which open-loop requests are patches
	dep    *deployment
	meter  *meter
	client *mmlpclient.Client
	id     string
	stream stream

	initial *mmlp.Instance
	prime   *op // churn set-up patch, applied before the trail

	// versions[k-vbase] is the model after the first k patches of the
	// trail (k = 0 follows the set-up patch, if any); only the last
	// keepVersions are retained.
	vmu      sync.RWMutex
	versions []*mmlp.Instance
	vbase    int64

	trail []step

	wmu        sync.Mutex   // serialises patches, so the model follows the daemon's commit order
	sent, aked atomic.Int64 // patches sent / acknowledged
	broken     atomic.Bool  // a patch failed: the model no longer follows the daemon

	windows []*window // every measured window, for attempted/failed
	distErr error     // the traced partitioned replay disagreed with the Solver
}

// keepVersions bounds the model versions a read may be checked against:
// at the workloads' patch rates it spans seconds, far longer than any
// read is in flight.
const keepVersions = 256

// errStale marks a read that overlapped more patches than the model
// versions kept.
var errStale = errors.New("model version no longer kept")

func (r *runner) model() *mmlp.Instance {
	r.vmu.RLock()
	defer r.vmu.RUnlock()
	return r.versions[len(r.versions)-1]
}

// setup starts the deployment, loads the instance, applies the churn
// set-up patch and serves one verified cold solve at the workload's
// radius. It returns the wall time from process start to that answer.
func setup(w *workload, seed int64, bin, dataDir string) (*runner, time.Duration, error) {
	start := time.Now()
	dep, err := deploy(w, bin, dataDir)
	if err != nil {
		return nil, 0, err
	}
	r := &runner{w: w, rng: rand.New(rand.NewSource(seed)), dep: dep, meter: newMeter(), initial: w.instance(seed)}
	r.client = mmlpclient.New(dep.base, &http.Client{Transport: r.meter})
	fail := func(err error) (*runner, time.Duration, error) {
		r.close()
		return nil, 0, err
	}
	info, err := r.client.Load(w.loadRequest(seed))
	if err != nil {
		return fail(fmt.Errorf("load: %w", err))
	}
	r.id = info.ID
	r.stream = w.newStream(seed, r.initial)
	model := r.initial
	if cs, ok := r.stream.(*churnStream); ok {
		if r.prime, err = cs.prime(model); err != nil {
			return fail(err)
		}
		if _, err := r.client.PatchTopology(r.id, r.prime.topoRequest()); err != nil {
			return fail(fmt.Errorf("set-up patch: %w", err))
		}
		if model, _, err = r.prime.apply(model); err != nil {
			return fail(err)
		}
	}
	r.versions = []*mmlp.Instance{model}
	res, err := r.client.Solve(r.id, w.solveRequest())
	if err != nil {
		return fail(fmt.Errorf("cold solve: %w", err))
	}
	if err := r.verify(res, 0, 0); err != nil {
		return fail(fmt.Errorf("cold solve: %w", err))
	}
	return r, time.Since(start), nil
}

func (r *runner) close() {
	r.meter.rt.CloseIdleConnections()
	r.dep.stop()
}

// verify checks one served solve batch against the model versions it
// may have been computed on (lo..hi patches applied): each served X
// satisfies every resource row Σ a_iv x_v ≤ 1 and x ≥ 0, its served ω
// equals ω recomputed on the model bit for bit, and each certificate
// is the product of its bounds.
func (r *runner) verify(res []httpapi.SolveResult, lo, hi int64) error {
	if len(res) != len(r.w.queries) {
		return fmt.Errorf("%d results for %d queries", len(res), len(r.w.queries))
	}
	r.vmu.RLock()
	if lo < r.vbase {
		r.vmu.RUnlock()
		return fmt.Errorf("%w: read overlapped more than %d patches", errStale, keepVersions)
	}
	// A copy: nextPatch drops old versions while the check below runs.
	cands := slices.Clone(r.versions[lo-r.vbase : hi-r.vbase+1])
	r.vmu.RUnlock()
	var last error
	for _, in := range slices.Backward(cands) {
		if last = checkResults(r.w.queries, res, in); last == nil {
			return nil
		}
	}
	return last
}

func checkResults(qs []httpapi.SolveQuery, res []httpapi.SolveResult, in *mmlp.Instance) error {
	for i, q := range qs {
		got := res[i]
		if got.Kind != q.Kind {
			return fmt.Errorf("result %d is %q, want %q", i, got.Kind, q.Kind)
		}
		if q.Kind == "certificate" {
			if !(got.Certificate >= 1) || got.Certificate != got.PartyBound*got.ResourceBound {
				return fmt.Errorf("certificate %v is not %v·%v ≥ 1", got.Certificate, got.PartyBound, got.ResourceBound)
			}
			continue
		}
		if v := in.Violation(got.X); v > 1e-9 {
			return fmt.Errorf("%s X violates the model by %g", q.Kind, v)
		}
		if om := in.Objective(got.X); om != got.Omega {
			return fmt.Errorf("%s ω served %v, recomputed %v", q.Kind, got.Omega, om)
		}
	}
	return nil
}

// finalCheck requires the last served answer to be bit-identical to a
// cold in-process Solver over the replayed model: every X coordinate,
// every ω and every certificate bound.
func (r *runner) finalCheck() error {
	res, err := r.client.Solve(r.id, r.w.solveRequest())
	if err != nil {
		return fmt.Errorf("final solve: %w", err)
	}
	in := r.model()
	sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
	for i, q := range r.w.queries {
		got := res[i]
		var want []float64
		switch q.Kind {
		case "safe":
			want = sess.Safe()
		case "average":
			avg, err := sess.LocalAverage(q.Radius)
			if err != nil {
				return err
			}
			want = avg.X
			if got.PartyBound != avg.PartyBound || got.ResourceBound != avg.ResourceBound {
				return fmt.Errorf("final average bounds differ from the in-process replay")
			}
		case "certificate":
			pb, rb, err := sess.Certificate(q.Radius)
			if err != nil {
				return err
			}
			if got.PartyBound != pb || got.ResourceBound != rb {
				return fmt.Errorf("final certificate differs from the in-process replay")
			}
			continue
		}
		if len(got.X) != len(want) {
			return fmt.Errorf("final %s X has %d coordinates, replay %d", q.Kind, len(got.X), len(want))
		}
		for v := range want {
			if math.Float64bits(got.X[v]) != math.Float64bits(want[v]) {
				return fmt.Errorf("final %s X[%d] = %v, in-process replay %v", q.Kind, v, got.X[v], want[v])
			}
		}
		if got.Omega != in.Objective(want) {
			return fmt.Errorf("final %s ω differs from the in-process replay", q.Kind)
		}
	}
	return nil
}

// window is what one measured stretch of traffic observed.
type window struct {
	op, read            samples // latencies; open loop times from the scheduled send
	callRead, callPatch samples // client time of each call, from its actual send
	lag                 samples // open loop: actual send − scheduled send
	serverMs            samples // Σ Micros the daemon reported, per op
	attempted, failed   int
	elapsed             time.Duration
	bytes               int64
	walGrowth           int64 // Σ positive per-op growth of the data directory
	backlogGrew         bool
	firstErr            error
}

func (win *window) fail(err error) {
	win.failed++
	if win.firstErr == nil {
		win.firstErr = err
	}
}

func micros(res []httpapi.SolveResult) int64 {
	var us int64
	for _, x := range res {
		us += x.Micros
	}
	return us
}

// nextPatch draws the stream's next mutation and publishes the model
// version it produces before the request goes out, so a concurrent read
// that already sees it can be verified against it.
func (r *runner) nextPatch() (*op, *mmlp.TopoDiff, error) {
	if r.broken.Load() {
		return nil, nil, fmt.Errorf("patch stream stopped after an earlier failure")
	}
	cur := r.model()
	o, err := r.stream.next(cur)
	if err != nil {
		return nil, nil, err
	}
	next, diff, err := o.apply(cur)
	if err != nil {
		return nil, nil, fmt.Errorf("model rejected the stream's own op: %w", err)
	}
	r.vmu.Lock()
	r.versions = append(r.versions, next)
	if drop := len(r.versions) - keepVersions; drop > 0 {
		r.versions = r.versions[drop:]
		r.vbase += int64(drop)
	}
	r.vmu.Unlock()
	r.sent.Add(1)
	return o, diff, nil
}

// sendPatch sends a mutation drawn by nextPatch and returns the micros
// the daemon reported for it.
func (r *runner) sendPatch(o *op, diff *mmlp.TopoDiff) (us int64, err error) {
	if o.weights != nil {
		resp, perr := r.client.PatchWeights(r.id, o.weights)
		if perr == nil {
			us = resp.Micros
		}
		err = perr
	} else {
		resp, perr := r.client.PatchTopology(r.id, o.topoRequest())
		if perr == nil {
			us = resp.Micros
			if !slices.Equal(resp.AddedAgents, diff.AddedAgents) || !slices.Equal(resp.RemovedAgents, diff.RemovedAgents) {
				perr = fmt.Errorf("topology patch changed agents +%v/-%v, model +%v/-%v",
					resp.AddedAgents, resp.RemovedAgents, diff.AddedAgents, diff.RemovedAgents)
			}
		}
		err = perr
	}
	if err != nil {
		r.broken.Store(true)
		return 0, err
	}
	r.trail = append(r.trail, step{op: o})
	r.aked.Add(1)
	return us, nil
}

// read sends one solve batch and verifies it against every model
// version it may have been computed on.
func (r *runner) read() (us int64, err error) {
	lo := r.aked.Load()
	res, err := r.client.Solve(r.id, r.w.solveRequest())
	hi := r.sent.Load()
	if err != nil {
		return 0, err
	}
	if err := r.verify(res, lo, hi); err != nil {
		return 0, err
	}
	return micros(res), nil
}

// closedLoop runs one client's patch-then-solve ops for dur. With
// walSample set it also samples the data directory after every op.
func (r *runner) closedLoop(dur time.Duration, walSample bool) *window {
	win := &window{}
	bytes0 := r.meter.bytes.Load()
	walLast := int64(0)
	if walSample {
		walLast = dirBytes(r.dep.dataDir)
	}
	start := time.Now()
	for time.Since(start) < dur {
		win.attempted++
		o, diff, err := r.nextPatch()
		if err != nil {
			win.fail(fmt.Errorf("patch: %w", err))
			break
		}
		t0 := time.Now()
		usP, err := r.sendPatch(o, diff)
		t1 := time.Now()
		if err != nil {
			win.fail(fmt.Errorf("patch: %w", err))
			break // the model no longer follows the daemon
		}
		usS, err := r.read()
		t2 := time.Now()
		if err != nil {
			win.fail(fmt.Errorf("solve: %w", err))
			continue
		}
		r.trail[len(r.trail)-1].solve = true
		win.op.add(t2.Sub(t0))
		win.read.add(t2.Sub(t1))
		win.callPatch.add(t1.Sub(t0))
		win.callRead.add(t2.Sub(t1))
		win.serverMs = append(win.serverMs, float64(usP+usS)/1e3)
		if walSample {
			now := dirBytes(r.dep.dataDir)
			win.walGrowth += max(now-walLast, 0)
			walLast = now
		}
	}
	win.elapsed = time.Since(start)
	win.bytes = r.meter.bytes.Load() - bytes0
	r.windows = append(r.windows, win)
	return win
}

// openLoop offers requests at a fixed rate for dur over at most two
// connections. Each request is timed from its scheduled send time, so
// a stall is charged to every request queued behind it; a share of
// patchShare requests are first-seen patches, the rest solve batches.
func (r *runner) openLoop(rate float64, dur time.Duration) *window {
	n := int(rate * dur.Seconds())
	isPatch := make([]bool, n)
	for j := range isPatch {
		isPatch[j] = r.rng.Float64() < r.w.patchShare
	}
	interval := time.Duration(float64(time.Second) / rate)
	win := &window{attempted: n}
	starts := make([]time.Duration, n) // actual send, from t0
	var mu sync.Mutex
	var next atomic.Int64
	bytes0 := r.meter.bytes.Load()
	trail0 := len(r.trail)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= n {
					return
				}
				due := t0.Add(time.Duration(j) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				start := time.Now()
				var us int64
				var err error
				if isPatch[j] {
					r.wmu.Lock()
					var o *op
					var diff *mmlp.TopoDiff
					if o, diff, err = r.nextPatch(); err == nil {
						us, err = r.sendPatch(o, diff)
					}
					r.wmu.Unlock()
				} else {
					us, err = r.read()
				}
				end := time.Now()
				mu.Lock()
				starts[j] = start.Sub(t0)
				if err != nil {
					win.fail(err)
				} else {
					win.op.add(end.Sub(due))
					win.lag.add(start.Sub(due))
					win.serverMs = append(win.serverMs, float64(us)/1e3)
					if isPatch[j] {
						win.callPatch.add(end.Sub(start))
					} else {
						win.read.add(end.Sub(due))
						win.callRead.add(end.Sub(start))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	win.elapsed = time.Since(t0)
	win.bytes = r.meter.bytes.Load() - bytes0
	// Interleave the window's patches (in commit order) with its reads
	// in schedule order, the order the in-process replay follows.
	patches := slices.Clone(r.trail[trail0:])
	r.trail = r.trail[:trail0]
	for j := range n {
		if !isPatch[j] {
			r.trail = append(r.trail, step{solve: true})
		} else if len(patches) > 0 {
			r.trail = append(r.trail, patches[0])
			patches = patches[1:]
		}
	}
	// The backlog grows when requests go out ever later: the median send
	// lag of the window's last quarter exceeds that of its second quarter
	// by more than growLag. A short stall moves neither median; an offered
	// rate above what the daemon sustains moves the later one by the
	// shortfall times half the window.
	lagMedian := func(lo, hi int) time.Duration {
		lags := make([]time.Duration, 0, hi-lo)
		for j := lo; j < hi; j++ {
			lags = append(lags, starts[j]-time.Duration(j)*interval)
		}
		slices.Sort(lags)
		return lags[len(lags)/2]
	}
	if n >= 4 {
		win.backlogGrew = lagMedian(3*n/4, n)-lagMedian(n/4, n/2) > growLag
	}
	r.windows = append(r.windows, win)
	return win
}

// growLag is the rise in median send lag that marks a growing backlog.
const growLag = 25 * time.Millisecond

// measure runs one window of the workload's own traffic: the closed
// loop, or the open loop at the nominal rate. A nominal window whose
// backlog grows is one failed attempt: the daemon no longer sustains the
// rate, and its latencies would measure the queue, not the daemon.
func (r *runner) measure(d time.Duration, walSample bool) *window {
	if !r.w.open {
		return r.closedLoop(d, walSample)
	}
	win := r.openLoop(r.w.nominalRPS, d)
	if win.backlogGrew {
		win.attempted++
		win.fail(fmt.Errorf("backlog grew at the nominal %v req/s", r.w.nominalRPS))
	}
	return win
}
