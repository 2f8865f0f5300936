package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"maxminlp/internal/gen"
	"maxminlp/internal/hypergraph"
	"maxminlp/internal/mmlp"
)

func sessionGraph(in *mmlp.Instance) *hypergraph.Graph {
	return hypergraph.FromInstance(in, hypergraph.Options{})
}

// sameAverageResult requires exact (bitwise) equality of every output
// field of the Theorem-3 algorithm; the accounting fields are
// intentionally excluded (they describe the pass, not the solution).
func sameAverageResult(t *testing.T, label string, got, want *AverageResult) {
	t.Helper()
	if got.Radius != want.Radius {
		t.Fatalf("%s: radius %d != %d", label, got.Radius, want.Radius)
	}
	if got.PartyBound != want.PartyBound || got.ResourceBound != want.ResourceBound {
		t.Errorf("%s: bounds (%v,%v) != (%v,%v)", label,
			got.PartyBound, got.ResourceBound, want.PartyBound, want.ResourceBound)
	}
	for v := range want.X {
		if got.X[v] != want.X[v] {
			t.Fatalf("%s: X[%d] = %v, want %v", label, v, got.X[v], want.X[v])
		}
		if got.Beta[v] != want.Beta[v] {
			t.Fatalf("%s: Beta[%d] = %v, want %v", label, v, got.Beta[v], want.Beta[v])
		}
		if got.BallSize[v] != want.BallSize[v] {
			t.Fatalf("%s: BallSize[%d] = %d, want %d", label, v, got.BallSize[v], want.BallSize[v])
		}
		if got.LocalOmega[v] != want.LocalOmega[v] {
			t.Fatalf("%s: LocalOmega[%d] = %v, want %v", label, v, got.LocalOmega[v], want.LocalOmega[v])
		}
	}
}

// randomDeltas picks k existing coefficients of the instance uniformly
// at random and assigns them fresh positive values.
func randomDeltas(in *mmlp.Instance, rng *rand.Rand, k int) []WeightDelta {
	deltas := make([]WeightDelta, 0, k)
	for len(deltas) < k {
		if rng.Intn(2) == 0 && in.NumResources() > 0 {
			i := rng.Intn(in.NumResources())
			row := in.Resource(i)
			e := row[rng.Intn(len(row))]
			deltas = append(deltas, WeightDelta{Kind: ResourceWeight, Row: i, Agent: e.Agent, Coeff: 0.1 + 2*rng.Float64()})
		} else if in.NumParties() > 0 {
			k := rng.Intn(in.NumParties())
			row := in.Party(k)
			e := row[rng.Intn(len(row))]
			deltas = append(deltas, WeightDelta{Kind: PartyWeight, Row: k, Agent: e.Agent, Coeff: 0.1 + 2*rng.Float64()})
		}
	}
	return deltas
}

// TestSessionBitIdentity checks every Solver query against its free
// function: the session's amortised state must never change an output
// bit, warm repeats included.
func TestSessionBitIdentity(t *testing.T) {
	for _, cse := range dedupCases(t) {
		t.Run(cse.name, func(t *testing.T) {
			g := sessionGraph(cse.in)
			s := NewSolverFromGraph(cse.in, g)

			safeRef := Safe(cse.in)
			safeGot := s.Safe()
			for v := range safeRef {
				if safeGot[v] != safeRef[v] {
					t.Fatalf("Safe[%d] = %v, want %v", v, safeGot[v], safeRef[v])
				}
			}

			// SafeRange must tile into Safe bit for bit across an uneven
			// 3-way partition, and reject bad ranges.
			n := cse.in.NumAgents()
			for w := 0; w < 3; w++ {
				lo, hi := n*w/3, n*(w+1)/3
				part, err := s.SafeRange(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				for v := lo; v < hi; v++ {
					if part[v-lo] != safeRef[v] {
						t.Fatalf("SafeRange[%d] = %v, want %v", v, part[v-lo], safeRef[v])
					}
				}
			}
			if _, err := s.SafeRange(-1, n); err == nil {
				t.Error("SafeRange(-1, n) accepted")
			}
			if _, err := s.SafeRange(0, n+1); err == nil {
				t.Error("SafeRange(0, n+1) accepted")
			}
			if _, err := s.SafeRange(2, 1); err == nil {
				t.Error("SafeRange(2, 1) accepted")
			}

			pbRef, rbRef, err := Certificate(cse.in, sessionGraph(cse.in), cse.radius)
			if err != nil {
				t.Fatal(err)
			}
			pb, rb, err := s.Certificate(cse.radius)
			if err != nil {
				t.Fatal(err)
			}
			if pb != pbRef || rb != rbRef {
				t.Fatalf("Certificate = (%v,%v), want (%v,%v)", pb, rb, pbRef, rbRef)
			}

			ref, err := LocalAverageOpt(cse.in, sessionGraph(cse.in), cse.radius, AverageOptions{NoDedup: true})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := s.LocalAverage(cse.radius)
			if err != nil {
				t.Fatal(err)
			}
			sameAverageResult(t, "cold", cold, ref)
			warm, err := s.LocalAverage(cse.radius)
			if err != nil {
				t.Fatal(err)
			}
			sameAverageResult(t, "warm", warm, ref)

			st := s.Stats()
			if st.FullSolves != 1 || st.WarmHits != 1 {
				t.Errorf("stats: FullSolves=%d WarmHits=%d, want 1/1", st.FullSolves, st.WarmHits)
			}
		})
	}
}

// TestSessionAdaptiveAgreement checks the session Adaptive method
// against the free AdaptiveAverage search bit-for-bit.
func TestSessionAdaptiveAgreement(t *testing.T) {
	in, _ := gen.Torus([]int{9, 9}, gen.LatticeOptions{})
	ref, err := AdaptiveAverageOpt(in, sessionGraph(in), 1.8, 6, AverageOptions{NoDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSolverFromGraph(in, sessionGraph(in)).Adaptive(1.8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got.Achieved != ref.Achieved || len(got.Certificates) != len(ref.Certificates) {
		t.Fatalf("adaptive search diverged: %+v vs %+v", got.Certificates, ref.Certificates)
	}
	for i := range ref.Certificates {
		if got.Certificates[i] != ref.Certificates[i] {
			t.Fatalf("certificate[%d] = %v, want %v", i, got.Certificates[i], ref.Certificates[i])
		}
	}
	sameAverageResult(t, "adaptive", got.AverageResult, ref.AverageResult)
}

// TestSessionIncrementalVsCold is the invalidation-correctness check:
// random cumulative delta batches against one warm session, each batch
// verified bit-identical to (a) a cold session over the independently
// mutated instance and (b) the NoDedup reference path — across instance
// families and radii.
func TestSessionIncrementalVsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tor, _ := gen.Torus([]int{8, 8}, gen.LatticeOptions{RandomWeights: true, Rng: rng})
	cyc, _ := gen.Cycle(48, gen.LatticeOptions{RandomWeights: true, Rng: rng})
	rnd := gen.Random(gen.RandomOptions{Agents: 60, Resources: 45, Parties: 25, MaxVI: 3, MaxVK: 3}, rng)
	disk, _ := gen.UnitDisk(gen.UnitDiskOptions{Nodes: 70, Radius: 0.16, MaxNeighbors: 4}, rng)
	cases := []struct {
		name   string
		in     *mmlp.Instance
		radius int
	}{
		{"torus 8x8 weighted R=1", tor, 1},
		{"torus 8x8 weighted R=2", tor, 2},
		{"cycle 48 weighted R=2", cyc, 2},
		{"random n=60 R=1", rnd, 1},
		{"unit-disk n=70 R=1", disk, 1},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			s := NewSolverFromGraph(cse.in, sessionGraph(cse.in))
			if _, err := s.LocalAverage(cse.radius); err != nil {
				t.Fatal(err)
			}
			ballBuilds := s.Stats().BallIndexBuilds

			mirror := cse.in
			for batch := 0; batch < 4; batch++ {
				deltas := randomDeltas(mirror, rng, 1+rng.Intn(5))
				if err := s.UpdateWeights(deltas); err != nil {
					t.Fatal(err)
				}
				// Mutate the mirror instance independently of the session.
				var res, par []mmlp.CoeffUpdate
				for _, d := range deltas {
					u := mmlp.CoeffUpdate{Row: d.Row, Agent: d.Agent, Coeff: d.Coeff}
					if d.Kind == ResourceWeight {
						res = append(res, u)
					} else {
						par = append(par, u)
					}
				}
				var err error
				mirror, err = mirror.UpdateCoeffs(res, par)
				if err != nil {
					t.Fatal(err)
				}

				inc, err := s.LocalAverage(cse.radius)
				if err != nil {
					t.Fatal(err)
				}
				coldSess, err := NewSolverFromGraph(mirror, sessionGraph(mirror)).LocalAverage(cse.radius)
				if err != nil {
					t.Fatal(err)
				}
				sameAverageResult(t, "incremental vs cold session", inc, coldSess)
				ref, err := LocalAverageOpt(mirror, sessionGraph(mirror), cse.radius, AverageOptions{NoDedup: true})
				if err != nil {
					t.Fatal(err)
				}
				sameAverageResult(t, "incremental vs reference", inc, ref)
			}
			st := s.Stats()
			if st.BallIndexBuilds != ballBuilds {
				t.Errorf("weight updates rebuilt ball indexes: %d -> %d", ballBuilds, st.BallIndexBuilds)
			}
			if st.IncrementalSolves != 4 {
				t.Errorf("IncrementalSolves = %d, want 4", st.IncrementalSolves)
			}
			if st.AgentsResolved == 0 {
				t.Error("incremental passes resolved no agents")
			}
		})
	}
}

// TestSessionIncrementalSubsetResolve checks the economy claim: a
// single-coefficient update on a large instance re-solves only the
// agents whose balls can see the touched row, not all of them.
func TestSessionIncrementalSubsetResolve(t *testing.T) {
	in, _ := gen.Torus([]int{16, 16}, gen.LatticeOptions{})
	s := NewSolverFromGraph(in, sessionGraph(in))
	if _, err := s.LocalAverage(1); err != nil {
		t.Fatal(err)
	}
	row := in.Resource(0)
	if err := s.UpdateWeights([]WeightDelta{{Kind: ResourceWeight, Row: 0, Agent: row[0].Agent, Coeff: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LocalAverage(1); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	n := in.NumAgents()
	if st.AgentsResolved == 0 || st.AgentsResolved >= n/2 {
		t.Errorf("one delta re-solved %d of %d agents; want a small ball-local subset", st.AgentsResolved, n)
	}
}

// TestSessionUpdateValidation checks that invalid updates are rejected
// atomically: no state change, and the session still answers queries
// identically to before.
func TestSessionUpdateValidation(t *testing.T) {
	in, _ := gen.Torus([]int{5, 5}, gen.LatticeOptions{})
	s := NewSolverFromGraph(in, sessionGraph(in))
	before, err := s.LocalAverage(1)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]WeightDelta{
		{{Kind: ResourceWeight, Row: -1, Agent: 0, Coeff: 1}},
		{{Kind: ResourceWeight, Row: in.NumResources(), Agent: 0, Coeff: 1}},
		{{Kind: PartyWeight, Row: 0, Agent: in.NumAgents() + 3, Coeff: 1}},
		{{Kind: ResourceWeight, Row: 0, Agent: in.Resource(0)[0].Agent, Coeff: 0}},
		{{Kind: ResourceWeight, Row: 0, Agent: in.Resource(0)[0].Agent, Coeff: -2}},
		{{Kind: WeightKind(9), Row: 0, Agent: 0, Coeff: 1}},
		// Second delta invalid: the whole batch must be rejected.
		{{Kind: ResourceWeight, Row: 0, Agent: in.Resource(0)[0].Agent, Coeff: 2}, {Kind: PartyWeight, Row: 0, Agent: -5, Coeff: 1}},
	}
	for i, deltas := range bad {
		if err := s.UpdateWeights(deltas); err == nil {
			t.Errorf("bad update %d accepted", i)
		}
	}
	after, err := s.LocalAverage(1)
	if err != nil {
		t.Fatal(err)
	}
	sameAverageResult(t, "after rejected updates", after, before)
	if got := s.Stats().WeightUpdates; got != 0 {
		t.Errorf("rejected updates counted: WeightUpdates = %d", got)
	}
}

// TestSessionConcurrent hammers one session from many goroutines with
// mixed queries and weight updates (run under -race in CI). Afterwards
// the session must agree bit-for-bit with a cold solve of whatever
// instance the interleaving produced.
func TestSessionConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in, _ := gen.Torus([]int{6, 6}, gen.LatticeOptions{RandomWeights: true, Rng: rng})
	s := NewSolverFromGraph(in, sessionGraph(in))

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*20)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + gi)))
			for iter := 0; iter < 12; iter++ {
				switch iter % 4 {
				case 0:
					if _, err := s.LocalAverage(1 + gi%2); err != nil {
						errs <- err
						return
					}
				case 1:
					deltas := randomDeltas(s.Instance(), rng, 1+rng.Intn(3))
					if err := s.UpdateWeights(deltas); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, _, err := s.Certificate(1); err != nil {
						errs <- err
						return
					}
				default:
					s.Safe()
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final := s.Instance()
	for _, radius := range []int{1, 2} {
		got, err := s.LocalAverage(radius)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := LocalAverageOpt(final, sessionGraph(final), radius, AverageOptions{NoDedup: true})
		if err != nil {
			t.Fatal(err)
		}
		sameAverageResult(t, "post-concurrency", got, ref)
	}
}

// TestSessionCacheCompaction checks that repeated weight updates cannot
// grow the shared cache without bound: the entry count stays within 4×
// the live set + 64, the envelope of the former periodic compaction
// (the session now holds exactly the live set; see
// TestSessionCacheHoldsOnlyLiveEntries).
func TestSessionCacheCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in, _ := gen.Torus([]int{8, 8}, gen.LatticeOptions{})
	s := NewSolverFromGraph(in, sessionGraph(in))
	if _, err := s.LocalAverage(1); err != nil {
		t.Fatal(err)
	}
	cur := in
	for round := 0; round < 30; round++ {
		deltas := randomDeltas(cur, rng, 3)
		if err := s.UpdateWeights(deltas); err != nil {
			t.Fatal(err)
		}
		cur = s.Instance()
		if _, err := s.LocalAverage(1); err != nil {
			t.Fatal(err)
		}
	}
	n := in.NumAgents()
	if size := s.Cache().DistinctSolves(); size > 4*n+64 {
		t.Errorf("cache grew to %d entries on a %d-agent instance despite compaction", size, n)
	}
}

// TestCertificateWithAgreement is the satellite agreement test between
// the allocation-free certificate variant and the original path.
func TestCertificateWithAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rnd := gen.Random(gen.RandomOptions{Agents: 50, Resources: 40, Parties: 20, MaxVI: 3, MaxVK: 3}, rng)
	tor, _ := gen.Torus([]int{7, 7}, gen.LatticeOptions{})
	for _, in := range []*mmlp.Instance{rnd, tor} {
		g := sessionGraph(in)
		csr := g.CSR()
		scr := NewCertScratch(csr)
		for radius := 0; radius <= 3; radius++ {
			pbRef, rbRef, err := Certificate(in, g, radius)
			if err != nil {
				t.Fatal(err)
			}
			// The scratch is reused across radii — the epoch stamps must
			// isolate the passes.
			pb, rb := CertificateWith(csr, g.BallIndex(radius, 1), scr)
			if pb != pbRef || rb != rbRef {
				t.Fatalf("R=%d: CertificateWith = (%v,%v), want (%v,%v)", radius, pb, rb, pbRef, rbRef)
			}
		}
	}
}

// TestSessionSnapshotMatchesFreeFunctions is the snapshot oracle: the
// free functions over Snapshot() — and over Graph() with Instance() —
// see the session's current coefficients, so they equal the session bit
// for bit after every weight and topology patch. A snapshot taken before
// a later weight patch keeps solving the coefficients it was taken at.
func TestSessionSnapshotMatchesFreeFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in, _ := gen.Torus([]int{8, 8}, gen.LatticeOptions{RandomWeights: true, Rng: rng})
	s := NewSolver(in, hypergraph.Options{})
	radii := []int{1, 2}
	type frozen struct {
		in *mmlp.Instance
		g  *hypergraph.Graph
		x  map[int]*AverageResult
	}
	check := func(label string) frozen {
		t.Helper()
		sin, sg := s.Snapshot()
		if s.Graph() != sg || s.Instance() != sin {
			t.Fatalf("%s: Graph()/Instance() disagree with Snapshot()", label)
		}
		safe, flat := s.Safe(), SafeFlat(sg.CSR())
		for v, want := range Safe(sin) {
			if safe[v] != want || flat[v] != want {
				t.Fatalf("%s: safe[%d] = %v (session) / %v (snapshot CSR), want %v", label, v, safe[v], flat[v], want)
			}
		}
		f := frozen{in: sin, g: sg, x: map[int]*AverageResult{}}
		for _, radius := range radii {
			want, err := s.LocalAverage(radius)
			if err != nil {
				t.Fatal(err)
			}
			got, err := LocalAverageOpt(sin, sg, radius, AverageOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameAverageResult(t, label+"/LocalAverageOpt", got, want)
			pb, rb, err := Certificate(sin, sg, radius)
			if err != nil {
				t.Fatal(err)
			}
			if pb != want.PartyBound || rb != want.ResourceBound {
				t.Fatalf("%s: Certificate = (%v,%v), want (%v,%v)", label, pb, rb, want.PartyBound, want.ResourceBound)
			}
			f.x[radius] = got
		}
		return f
	}
	// unchanged requires an old snapshot to solve exactly as when taken.
	unchanged := func(label string, f frozen) {
		t.Helper()
		for _, radius := range radii {
			got, err := LocalAverageOpt(f.in, f.g, radius, AverageOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameAverageResult(t, label, got, f.x[radius])
		}
	}
	prev := check("initial")
	mirror := in
	for step := 0; step < 3; step++ {
		deltas := randomDeltas(mirror, rng, 1+rng.Intn(3))
		if err := s.UpdateWeights(deltas); err != nil {
			t.Fatal(err)
		}
		unchanged("snapshot before weight patch", prev)
		prev = check("after weight patch")
		if err := s.UpdateWeights(randomDeltas(mirror, rng, 1)); err != nil {
			t.Fatal(err)
		}
		unchanged("snapshot before second weight patch", prev)
		check("after second weight patch")
		mirror = s.Instance()
		ops, next := gen.RandomTopoBatch(mirror, rng, 1+rng.Intn(3))
		if _, err := s.UpdateTopology(ops); err != nil {
			t.Fatal(err)
		}
		mirror = next
		prev = check("after topology patch")
	}
}

// TestSessionPatchesKeepPooledSolvers checks that patches keep the pooled
// local solvers and their LP workspaces: a weight patch after a
// Snapshot() hand-out clones the coefficients, and a topology patch
// replaces the index, but neither drops the pool — the solvers rebind
// when taken out. After the first pass, a loop of UpdateWeights +
// Snapshot + LocalAverage, and of UpdateTopology + LocalAverage, builds
// no local solver. The garbage collector is off and one P runs, so the
// pool keeps every item it is given and hands it back.
func TestSessionPatchesKeepPooledSolvers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(5))
	in, _ := gen.Torus([]int{8, 8}, gen.LatticeOptions{RandomWeights: true, Rng: rng})
	s := NewSolver(in, hypergraph.Options{})
	s.SetWorkers(1)
	if _, err := s.LocalAverage(2); err != nil {
		t.Fatal(err)
	}
	var builds int64
	for pass := 0; pass < 6; pass++ {
		if err := s.UpdateWeights(randomDeltas(s.Instance(), rng, 1)); err != nil {
			t.Fatal(err)
		}
		s.Snapshot()
		if _, err := s.LocalAverage(2); err != nil {
			t.Fatal(err)
		}
		if pass >= 3 {
			ops, _ := gen.RandomTopoBatch(s.Instance(), rng, 2)
			if _, err := s.UpdateTopology(ops); err != nil {
				t.Fatal(err)
			}
			if _, err := s.LocalAverage(2); err != nil {
				t.Fatal(err)
			}
		}
		got := s.solverBuilds.Load()
		if pass > 0 && got != builds {
			t.Fatalf("pass %d built %d local solvers; want 0 after the first pass", pass, got-builds)
		}
		builds = got
	}
}
