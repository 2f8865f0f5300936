package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"maxminlp"
	"maxminlp/internal/httpapi"
	"maxminlp/internal/mmlp"
)

// small returns a named workload shrunk to a side × side torus.
func small(t *testing.T, name string, side int) *workload {
	t.Helper()
	w := *workloadByName(name)
	w.dims = []int{side, side}
	return &w
}

// trailOf draws n ops of the workload's stream from seed, applying each
// to the model, and returns the set-up patch, the trail (each op
// followed by a solve) and the model after every op.
func trailOf(t *testing.T, w *workload, seed int64, n int) (*op, []step, []*mmlp.Instance) {
	t.Helper()
	in := w.instance(seed)
	s := w.newStream(seed, in)
	var prime *op
	if cs, ok := s.(*churnStream); ok {
		var err error
		if prime, err = cs.prime(in); err != nil {
			t.Fatal(err)
		}
		if in, _, err = prime.apply(in); err != nil {
			t.Fatal(err)
		}
	}
	states := []*mmlp.Instance{in}
	var trail []step
	for i := 0; i < n; i++ {
		o, err := s.next(in)
		if err != nil {
			t.Fatal(err)
		}
		if in, _, err = o.apply(in); err != nil {
			t.Fatalf("op %d: model rejects the stream's op: %v", i, err)
		}
		states = append(states, in)
		trail = append(trail, step{op: o, solve: true})
	}
	return prime, trail, states
}

// TestStreamsNeverRepeatState checks the first-seen property: within a
// stream no instance state — every coefficient and every support —
// equals an earlier one, so no op can be answered as a replay.
func TestStreamsNeverRepeatState(t *testing.T) {
	for _, name := range []string{"weights-firstseen", "topo-churn-wal", "read-mix"} {
		t.Run(name, func(t *testing.T) {
			_, _, states := trailOf(t, small(t, name, 8), 7, 400)
			seen := map[[32]byte]int{}
			for i, in := range states {
				b, err := json.Marshal(in)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.Sum256(b)
				if j, ok := seen[h]; ok {
					t.Fatalf("state after op %d repeats the state after op %d", i, j)
				}
				seen[h] = i
			}
		})
	}
}

// TestChurnIsSizeStationary checks that structural churn keeps the live
// structure's size fixed: the same number of support entries and live
// agents after every op, no dead row, and every live agent in at least
// one resource.
func TestChurnIsSizeStationary(t *testing.T) {
	_, _, states := trailOf(t, small(t, "topo-churn-wal", 8), 3, 300)
	size := func(in *mmlp.Instance) (entries, live int) {
		for i := 0; i < in.NumResources(); i++ {
			if len(in.Resource(i)) < 2 {
				t.Fatalf("resource %d has %d members", i, len(in.Resource(i)))
			}
			entries += len(in.Resource(i))
		}
		for k := 0; k < in.NumParties(); k++ {
			if len(in.Party(k)) < 2 {
				t.Fatalf("party %d has %d members", k, len(in.Party(k)))
			}
			entries += len(in.Party(k))
		}
		for v := 0; v < in.NumAgents(); v++ {
			if len(in.AgentResources(v)) > 0 {
				live++
			} else if len(in.AgentParties(v)) > 0 {
				t.Fatalf("agent %d is in a party but no resource", v)
			}
		}
		return entries, live
	}
	e0, l0 := size(states[0])
	for i, in := range states[1:] {
		if e, l := size(in); e != e0 || l != l0 {
			t.Fatalf("after op %d: %d entries, %d live agents; want %d, %d", i, e, l, e0, l0)
		}
	}
	if states[len(states)-1].NumAgents() <= states[0].NumAgents() {
		t.Fatal("no agent was replaced")
	}
}

// TestPhaseAccountingCloses checks on a short replay that the Solver's
// four phase means plus core.other_ms sum to core.solve_ms (to rounding),
// that the residual is not negative, and that a first-seen weight
// stream is never served from the solve cache.
func TestPhaseAccountingCloses(t *testing.T) {
	for _, name := range []string{"weights-firstseen", "topo-churn-wal"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name, 10)
			prime, trail, _ := trailOf(t, w, 5, 30)
			l, err := replayCore(w, w.instance(5), prime, trail)
			if err != nil {
				t.Fatal(err)
			}
			sum := l["core.other_ms"]
			for _, p := range phaseNames {
				sum += l["core."+p+"_ms"]
			}
			if math.Abs(sum-l["core.solve_ms"]) > 1e-9*l["core.solve_ms"] {
				t.Errorf("phases + other = %v ms, core.solve_ms = %v ms", sum, l["core.solve_ms"])
			}
			if l["core.other_ms"] < 0 {
				t.Errorf("core.other_ms = %v < 0: the phases overlap the solve window", l["core.other_ms"])
			}
			if l["lp.solves_per_op"] == 0 || l["lp.pivots_per_op"] == 0 {
				t.Errorf("no LP work replayed: %v", l)
			}
			if !w.churn && l["core.cache_hit_ratio"] != 0 {
				t.Errorf("first-seen weight stream hit the cache: ratio %v", l["core.cache_hit_ratio"])
			}
			if w.churn {
				tl, err := replayTopo(w, w.instance(5), prime, trail)
				if err != nil {
					t.Fatal(err)
				}
				if tl["hypergraph.balls_patched_per_op"] == 0 {
					t.Errorf("topology replay patched no balls: %v", tl)
				}
			}
		})
	}
}

// TestDistReplayChecked checks that the partitioned replay's final X
// passes checkDist, and that an X one ulp off in a single coordinate
// fails it.
func TestDistReplayChecked(t *testing.T) {
	w := small(t, "weights-firstseen", 6)
	_, trail, _ := trailOf(t, w, 4, 5)
	_, x, err := replayDist(w, w.instance(4), trail)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDist(w, w.instance(4), trail, x); err != nil {
		t.Fatal(err)
	}
	x[len(x)/2] = math.Nextafter(x[len(x)/2], 2)
	if checkDist(w, w.instance(4), trail, x) == nil {
		t.Error("X one ulp off accepted")
	}
}

// TestVerifyBesidePatches runs the open loop's two sides at once, well
// past keepVersions patches: one goroutine publishes model versions as
// nextPatch does, while another verifies answers computed on the newest
// version it sees. Every answer must pass; run it with -race to check
// that dropping old versions never moves the ones a check is reading.
func TestVerifyBesidePatches(t *testing.T) {
	w := small(t, "read-mix", 6)
	w.queries = []httpapi.SolveQuery{{Kind: "safe"}}
	r := &runner{w: w, initial: w.instance(2)}
	r.stream = w.newStream(2, r.initial)
	r.versions = []*mmlp.Instance{r.initial}
	done := make(chan error, 1)
	go func() {
		for range 3 * keepVersions {
			if _, _, err := r.nextPatch(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	checked := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if checked == 0 {
				t.Fatal("no answer was checked while patches ran")
			}
			return
		default:
		}
		r.vmu.RLock()
		k := r.vbase + int64(len(r.versions)) - 1
		in := r.versions[len(r.versions)-1]
		r.vmu.RUnlock()
		x := maxminlp.NewSolver(in, maxminlp.GraphOptions{}).Safe()
		res := []httpapi.SolveResult{{Kind: "safe", Omega: in.Objective(x), X: x}}
		if err := r.verify(res, max(k-1, 0), k); errors.Is(err, errStale) {
			continue // the patches ran keepVersions ahead of this check
		} else if err != nil {
			t.Fatalf("answer on version %d rejected: %v", k, err)
		}
		checked++
	}
}

// TestVerifierRejectsWrongAnswers checks that the answer check accepts
// a correct served batch and rejects an infeasible X and a wrong ω.
func TestVerifierRejectsWrongAnswers(t *testing.T) {
	w := small(t, "read-mix", 6)
	in := w.instance(1)
	sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
	avg, err := sess.LocalAverage(1)
	if err != nil {
		t.Fatal(err)
	}
	safe := sess.Safe()
	pb, rb, _ := sess.Certificate(1)
	good := func() []httpapi.SolveResult {
		return []httpapi.SolveResult{
			{Kind: "safe", Omega: in.Objective(safe), X: append([]float64(nil), safe...)},
			{Kind: "average", Radius: 1, Omega: in.Objective(avg.X), X: append([]float64(nil), avg.X...)},
			{Kind: "certificate", Radius: 1, PartyBound: pb, ResourceBound: rb, Certificate: pb * rb},
		}
	}
	if err := checkResults(w.queries, good(), in); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	infeasible := good()
	infeasible[1].X[0] *= 4
	infeasible[1].Omega = in.Objective(infeasible[1].X)
	if checkResults(w.queries, infeasible, in) == nil {
		t.Error("infeasible X accepted")
	}
	wrongOmega := good()
	wrongOmega[0].Omega = math.Nextafter(wrongOmega[0].Omega, 0)
	if checkResults(w.queries, wrongOmega, in) == nil {
		t.Error("ω one ulp off accepted")
	}
}
