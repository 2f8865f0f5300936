package core

import (
	"math/rand"
	"sync"
	"testing"

	"maxminlp/internal/gen"
	"maxminlp/internal/obs"
)

// checkCacheLive requires a session's cache to hold exactly the entries
// its retained balls reference — each with a holder count equal to the
// number of agent slots referencing it — plus the entries other callers
// stored since the last sweep that no ball has taken up. The entry and
// key-byte tallies must match the buckets.
func checkCacheLive(t *testing.T, s *Solver, label string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cache.c
	slots := make(map[*cacheEntry]int)
	for _, st := range s.states {
		for _, e := range st.entries {
			if e != nil {
				slots[e]++
			}
		}
	}
	c.mu.Lock()
	for e, k := range slots {
		if e.holders != k {
			c.mu.Unlock()
			t.Fatalf("%s: entry held by %d slots has holder count %d", label, k, e.holders)
		}
		if c.lookupLocked(e.hash, e.key) != e {
			c.mu.Unlock()
			t.Fatalf("%s: a held entry is missing from the cache", label)
		}
	}
	unswept := 0
	for _, e := range c.unheld {
		if e.holders == 0 && c.lookupLocked(e.hash, e.key) == e {
			unswept++
		}
	}
	stored, keyBytes := 0, 0
	for _, es := range c.buckets {
		for _, e := range es {
			stored++
			keyBytes += len(e.key)
		}
	}
	tally, tallyBytes := c.size, c.keyBytes
	c.mu.Unlock()
	if stored != tally || keyBytes != tallyBytes {
		t.Fatalf("%s: buckets hold %d entries / %d key bytes, tallies say %d / %d",
			label, stored, keyBytes, tally, tallyBytes)
	}
	if got, want := s.cache.DistinctSolves(), len(slots)+unswept; got != want {
		t.Fatalf("%s: cache holds %d entries, want %d live + %d unswept", label, got, len(slots), unswept)
	}
}

// TestSessionCacheHoldsOnlyLiveEntries checks the exact-live invariant
// of the session cache across shared entries, two live radii, weight
// and topology patches, a presolve toggle, and entries stored by a ball
// solver and by LocalAverageOpt over the session's cache.
func TestSessionCacheHoldsOnlyLiveEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Unit weights: balls whose sorted members sit in the same relative
	// layout share one entry (49 entries serve the 81 radius-1 balls).
	in, _ := gen.Torus([]int{9, 9}, gen.LatticeOptions{})
	s := NewSolverFromGraph(in, sessionGraph(in))
	radii := []int{1, 2}
	solve := func(label string) {
		t.Helper()
		for _, r := range radii {
			got, err := s.LocalAverage(r)
			if err != nil {
				t.Fatal(err)
			}
			cur := s.Instance()
			ref, err := LocalAverageOpt(cur, sessionGraph(cur), r, AverageOptions{NoDedup: true, Presolve: s.Presolve()})
			if err != nil {
				t.Fatal(err)
			}
			sameAverageResult(t, label, got, ref)
			checkCacheLive(t, s, label)
		}
	}
	solve("cold")
	if n := s.Cache().DistinctSolves(); n >= len(radii)*in.NumAgents() {
		t.Fatalf("unit torus: %d entries for %d balls, so no entry is shared", n, len(radii)*in.NumAgents())
	}

	for round := 0; round < 8; round++ {
		cur := s.Instance()
		if round%2 == 0 {
			if err := s.UpdateWeights(randomChurnDeltas(cur, rng, 1+round%3)); err != nil {
				t.Fatal(err)
			}
			checkCacheLive(t, s, "after weights")
		} else {
			ops, _ := gen.RandomTopoBatch(cur, rng, 1+round%3)
			if _, err := s.UpdateTopology(ops); err != nil {
				t.Fatal(err)
			}
			checkCacheLive(t, s, "after topology")
		}
		solve("patched")
	}

	for _, on := range []bool{true, false} {
		s.SetPresolve(on)
		checkCacheLive(t, s, "presolve toggle")
		if n := s.Cache().DistinctSolves(); n != 0 {
			t.Fatalf("presolve toggle left %d entries no ball holds", n)
		}
		solve("presolve toggled")
	}

	// Entries stored by callers that never take them up: a ball solver
	// over radius-3 balls and LocalAverageOpt at radius 3, sequential
	// and parallel. They stay until the next update sweeps them.
	before := s.Cache().DistinctSolves()
	cur := s.Instance()
	g := sessionGraph(cur)
	view := FullView{In: cur}
	bs := s.NewBallSolver()
	for u := 0; u < cur.NumAgents(); u += 5 {
		ball := g.Ball(u, 3)
		inBall := make(map[int]bool, len(ball))
		for _, v := range ball {
			inBall[v] = true
		}
		if _, _, _, err := bs.Solve(view, ball, inBall); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []int{1, 2} {
		if _, err := LocalAverageOpt(cur, g, 3, AverageOptions{Cache: s.Cache(), Workers: w}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Cache().DistinctSolves() <= before {
		t.Fatal("radius-3 ball solves stored nothing; the sweep below checks nothing")
	}
	checkCacheLive(t, s, "ball-solver inserts")
	if err := s.UpdateWeights(randomChurnDeltas(cur, rng, 1)); err != nil {
		t.Fatal(err)
	}
	checkCacheLive(t, s, "swept")
	if len(s.cache.c.unheld) != 0 {
		t.Fatalf("sweep left %d listed entries", len(s.cache.c.unheld))
	}
	// A resource delta changes the keys of every ball around its agent.
	// LocalAverageOpt stores the patched radius-1 LPs before the session
	// re-solves them; the session takes those entries up, so the next
	// sweep must keep them.
	cur = s.Instance()
	for i := 0; i < cur.NumResources(); i++ {
		if row := cur.Resource(i); len(row) > 0 {
			d := WeightDelta{Kind: ResourceWeight, Row: i, Agent: row[0].Agent, Coeff: 2.5 * row[0].Coeff}
			if err := s.UpdateWeights([]WeightDelta{d}); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	cur = s.Instance()
	if _, err := LocalAverageOpt(cur, sessionGraph(cur), 1, AverageOptions{Cache: s.Cache(), Workers: 2}); err != nil {
		t.Fatal(err)
	}
	solve("after sweep")
	if err := s.UpdateWeights(randomChurnDeltas(cur, rng, 1)); err != nil {
		t.Fatal(err)
	}
	checkCacheLive(t, s, "taken-up entries swept")
	solve("after second sweep")
}

// TestSessionCacheGauges checks the cache footprint gauges: they sum the
// caches of every session sharing a metrics bundle, follow passes and
// updates, and lose a session's share when it detaches.
func TestSessionCacheGauges(t *testing.T) {
	m := obs.NewSolveMetrics(obs.NewRegistry())
	var sessions []*Solver
	for seed := int64(1); seed <= 2; seed++ {
		in, _ := gen.Torus([]int{6, 6}, gen.LatticeOptions{RandomWeights: true, Rng: rand.New(rand.NewSource(seed))})
		s := NewSolverFromGraph(in, sessionGraph(in))
		s.SetObs(m)
		sessions = append(sessions, s)
	}
	check := func(label string) {
		t.Helper()
		entries, keyBytes := 0, 0
		for _, s := range sessions {
			n, kb, _ := s.cache.c.counts()
			entries += n
			keyBytes += kb
		}
		if got := m.CacheEntries.Value(); got != float64(entries) {
			t.Fatalf("%s: entries gauge %v, caches hold %d", label, got, entries)
		}
		if got := m.CacheKeyBytes.Value(); got != float64(keyBytes) {
			t.Fatalf("%s: key-bytes gauge %v, caches hold %d", label, got, keyBytes)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for _, s := range sessions {
		if _, err := s.LocalAverage(1); err != nil {
			t.Fatal(err)
		}
		check("cold")
		if err := s.UpdateWeights(randomDeltas(s.Instance(), rng, 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.LocalAverage(1); err != nil {
			t.Fatal(err)
		}
		check("incremental")
	}
	if m.CacheKeyBytes.Value() == 0 {
		t.Fatal("no key bytes recorded")
	}
	sessions[0].SetObs(nil)
	sessions = sessions[1:]
	check("detached")
}

// TestSessionCacheConcurrentBallSolvers runs session patches and solves
// while ball solvers store and reuse entries in the same cache from
// other goroutines; the session stays bit-identical to a cold solve, and
// once the next update has swept, its cache holds only live entries.
func TestSessionCacheConcurrentBallSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in, _ := gen.Torus([]int{6, 6}, gen.LatticeOptions{RandomWeights: true, Rng: rng})
	s := NewSolverFromGraph(in, sessionGraph(in))
	const radius = 1
	if _, err := s.LocalAverage(radius); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bs := s.NewBallSolver()
			for u := 0; ; u = (u + 1) % in.NumAgents() {
				select {
				case <-stop:
					return
				default:
				}
				cur, g := s.Snapshot()
				ball := g.Ball(u, 1+u%2)
				inBall := make(map[int]bool, len(ball))
				for _, v := range ball {
					inBall[v] = true
				}
				if _, _, _, err := bs.Solve(FullView{In: cur}, ball, inBall); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		if err := s.UpdateWeights(randomDeltas(s.Instance(), rng, 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.LocalAverage(radius); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.UpdateWeights(randomDeltas(s.Instance(), rng, 1)); err != nil {
		t.Fatal(err)
	}
	checkCacheLive(t, s, "after concurrent ball solvers")
	got, err := s.LocalAverage(radius)
	if err != nil {
		t.Fatal(err)
	}
	cur := s.Instance()
	ref, err := LocalAverageOpt(cur, sessionGraph(cur), radius, AverageOptions{NoDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	sameAverageResult(t, "after concurrent ball solvers", got, ref)
	checkCacheLive(t, s, "final")
}
