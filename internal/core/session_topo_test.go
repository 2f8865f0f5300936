package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"maxminlp/internal/gen"
	"maxminlp/internal/mmlp"
)

// randomChurnDeltas is randomDeltas made safe for churned instances:
// dead rows (empty support) are skipped. It may return fewer than k
// deltas on heavily-churned instances.
func randomChurnDeltas(in *mmlp.Instance, rng *rand.Rand, k int) []WeightDelta {
	deltas := make([]WeightDelta, 0, k)
	for attempts := 0; len(deltas) < k && attempts < 50*k; attempts++ {
		if rng.Intn(2) == 0 && in.NumResources() > 0 {
			i := rng.Intn(in.NumResources())
			row := in.Resource(i)
			if len(row) == 0 {
				continue
			}
			e := row[rng.Intn(len(row))]
			deltas = append(deltas, WeightDelta{Kind: ResourceWeight, Row: i, Agent: e.Agent, Coeff: 0.1 + 2*rng.Float64()})
		} else if in.NumParties() > 0 {
			k := rng.Intn(in.NumParties())
			row := in.Party(k)
			if len(row) == 0 {
				continue
			}
			e := row[rng.Intn(len(row))]
			deltas = append(deltas, WeightDelta{Kind: PartyWeight, Row: k, Agent: e.Agent, Coeff: 0.1 + 2*rng.Float64()})
		}
	}
	return deltas
}

// applyMirrorDeltas folds weight deltas into the independent mirror
// instance the cold solvers are built from.
func applyMirrorDeltas(t *testing.T, mirror *mmlp.Instance, deltas []WeightDelta) *mmlp.Instance {
	t.Helper()
	var res, par []mmlp.CoeffUpdate
	for _, d := range deltas {
		u := mmlp.CoeffUpdate{Row: d.Row, Agent: d.Agent, Coeff: d.Coeff}
		if d.Kind == ResourceWeight {
			res = append(res, u)
		} else {
			par = append(par, u)
		}
	}
	out, err := mirror.UpdateCoeffs(res, par)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSessionTopologyVsCold is the structural-invalidation correctness
// check: interleaved random topology and weight batches against one warm
// session, each verified bit-identical — Safe, LocalAverage and
// Certificate — to a cold session over an independently mutated mirror
// instance and to the NoDedup reference path, across instance families
// and radii, with zero CSR or ball-index rebuilds.
func TestSessionTopologyVsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tor, _ := gen.Torus([]int{8, 8}, gen.LatticeOptions{RandomWeights: true, Rng: rng})
	cyc, _ := gen.Cycle(40, gen.LatticeOptions{RandomWeights: true, Rng: rng})
	rnd := gen.Random(gen.RandomOptions{Agents: 50, Resources: 40, Parties: 20, MaxVI: 3, MaxVK: 3}, rng)
	disk, _ := gen.UnitDisk(gen.UnitDiskOptions{Nodes: 60, Radius: 0.17, MaxNeighbors: 4}, rng)
	cases := []struct {
		name   string
		in     *mmlp.Instance
		radius int
	}{
		{"torus 8x8 weighted R=1", tor, 1},
		{"torus 8x8 weighted R=2", tor, 2},
		{"cycle 40 weighted R=2", cyc, 2},
		{"random n=50 R=1", rnd, 1},
		{"unit-disk n=60 R=1", disk, 1},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			s := NewSolverFromGraph(cse.in, sessionGraph(cse.in))
			if _, err := s.LocalAverage(cse.radius); err != nil {
				t.Fatal(err)
			}
			before := s.Stats()

			mirror := cse.in
			topoBatches := 0
			for batch := 0; batch < 6; batch++ {
				if batch%2 == 0 {
					ops, next := gen.RandomTopoBatch(mirror, rng, 1+rng.Intn(4))
					if _, err := s.UpdateTopology(ops); err != nil {
						t.Fatal(err)
					}
					mirror = next
					topoBatches++
				} else {
					deltas := randomChurnDeltas(mirror, rng, 1+rng.Intn(4))
					if len(deltas) == 0 {
						continue
					}
					if err := s.UpdateWeights(deltas); err != nil {
						t.Fatal(err)
					}
					mirror = applyMirrorDeltas(t, mirror, deltas)
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

				safe := s.Safe()
				safeRef := Safe(mirror)
				for v := range safeRef {
					if safe[v] != safeRef[v] {
						t.Fatalf("Safe[%d] = %v, want %v", v, safe[v], safeRef[v])
					}
				}
				pb, rb, err := s.Certificate(cse.radius)
				if err != nil {
					t.Fatal(err)
				}
				pbRef, rbRef, err := Certificate(mirror, sessionGraph(mirror), cse.radius)
				if err != nil {
					t.Fatal(err)
				}
				if pb != pbRef || rb != rbRef {
					t.Fatalf("Certificate = (%v,%v), want (%v,%v)", pb, rb, pbRef, rbRef)
				}
			}

			st := s.Stats()
			if st.CSRBuilds != before.CSRBuilds || st.BallIndexBuilds != before.BallIndexBuilds {
				t.Errorf("structural updates rebuilt structures: CSR %d->%d, balls %d->%d",
					before.CSRBuilds, st.CSRBuilds, before.BallIndexBuilds, st.BallIndexBuilds)
			}
			if st.TopoUpdates != topoBatches {
				t.Errorf("TopoUpdates = %d, want %d", st.TopoUpdates, topoBatches)
			}
			if st.BallsPatched == 0 {
				t.Error("no balls patched despite topology churn")
			}
			if st.AgentsResolved == 0 {
				t.Error("incremental passes resolved no agents")
			}
		})
	}
}

// TestSessionTopologySubsetResolve checks the economy claim for
// structural churn: one edge change on a large instance re-solves only
// the ball-local neighbourhood and patches only the balls around it,
// with no structure rebuilt.
func TestSessionTopologySubsetResolve(t *testing.T) {
	in, _ := gen.Torus([]int{16, 16}, gen.LatticeOptions{})
	s := NewSolverFromGraph(in, sessionGraph(in))
	if _, err := s.LocalAverage(2); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if _, err := s.UpdateTopology([]mmlp.TopoUpdate{mmlp.AddResourceEdge(0, 18, 1.25)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LocalAverage(2); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	n := in.NumAgents()
	if st.AgentsResolved == 0 || st.AgentsResolved >= n/2 {
		t.Errorf("one structural op re-solved %d of %d agents; want a small ball-local subset", st.AgentsResolved, n)
	}
	if st.BallsPatched == 0 || st.BallsPatched >= n/2 {
		t.Errorf("one structural op patched %d of %d balls; want a small ball-local subset", st.BallsPatched, n)
	}
	if st.CSRBuilds != before.CSRBuilds || st.BallIndexBuilds != before.BallIndexBuilds {
		t.Errorf("structural update rebuilt structures: CSR %d->%d, balls %d->%d",
			before.CSRBuilds, st.CSRBuilds, before.BallIndexBuilds, st.BallIndexBuilds)
	}
}

// TestSessionTopologyValidation checks that invalid structural batches
// are rejected atomically: no state change, no counters, and the session
// still answers queries identically to before.
func TestSessionTopologyValidation(t *testing.T) {
	in, _ := gen.Torus([]int{5, 5}, gen.LatticeOptions{})
	s := NewSolverFromGraph(in, sessionGraph(in))
	before, err := s.LocalAverage(1)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]mmlp.TopoUpdate{
		{mmlp.RemoveAgent(-1)},
		{mmlp.RemoveAgent(in.NumAgents())},
		{mmlp.AddResourceEdge(0, in.Resource(0)[0].Agent, 1)},          // already present
		{mmlp.AddResourceEdge(in.NumResources()+1, 0, 1)},              // row gap
		{mmlp.AddPartyEdge(0, 0, -1)},                                  // bad coefficient
		{mmlp.RemoveResourceEdge(0, in.NumAgents()-1)},                 // not in support
		{mmlp.AddAgent(), mmlp.AddResourceEdge(0, in.NumAgents(), -3)}, // second op invalid
	}
	for i, ups := range bad {
		if _, err := s.UpdateTopology(ups); err == nil {
			t.Errorf("bad topology batch %d accepted", i)
		}
	}
	after, err := s.LocalAverage(1)
	if err != nil {
		t.Fatal(err)
	}
	sameAverageResult(t, "after rejected topology batches", after, before)
	if got := s.Stats().TopoUpdates; got != 0 {
		t.Errorf("rejected batches counted: TopoUpdates = %d", got)
	}
}

// TestSessionTopologyLinearization hammers one session with concurrent
// queries, weight patches and topology patches (run under -race in CI),
// recording the exact version sequence the serialised updates produce.
// Every LocalAverage result captured concurrently must be bit-identical
// to a cold solve of one of those versions — the linearisation
// guarantee: each query observed some prefix of the update history,
// never a mix.
func TestSessionTopologyLinearization(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in, _ := gen.Torus([]int{5, 5}, gen.LatticeOptions{RandomWeights: true, Rng: rng})
	s := NewSolverFromGraph(in, sessionGraph(in))
	const radius = 1

	var verMu sync.Mutex
	versions := []*mmlp.Instance{in}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	var resMu sync.Mutex
	var captured []*AverageResult

	// Two updater goroutines: updates serialise on verMu so the version
	// history is exact (the session call happens inside the critical
	// section).
	for gi := 0; gi < 2; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + gi)))
			for iter := 0; iter < 6; iter++ {
				verMu.Lock()
				cur := versions[len(versions)-1]
				if iter%2 == 0 {
					ops, next := gen.RandomTopoBatch(cur, rng, 1+rng.Intn(3))
					if _, err := s.UpdateTopology(ops); err != nil {
						verMu.Unlock()
						errs <- err
						return
					}
					versions = append(versions, next)
				} else {
					deltas := randomChurnDeltas(cur, rng, 1+rng.Intn(3))
					if len(deltas) > 0 {
						if err := s.UpdateWeights(deltas); err != nil {
							verMu.Unlock()
							errs <- err
							return
						}
						var res, par []mmlp.CoeffUpdate
						for _, d := range deltas {
							u := mmlp.CoeffUpdate{Row: d.Row, Agent: d.Agent, Coeff: d.Coeff}
							if d.Kind == ResourceWeight {
								res = append(res, u)
							} else {
								par = append(par, u)
							}
						}
						next, err := cur.UpdateCoeffs(res, par)
						if err != nil {
							verMu.Unlock()
							errs <- err
							return
						}
						versions = append(versions, next)
					}
				}
				verMu.Unlock()
			}
		}(gi)
	}
	// Three query goroutines capturing results concurrently.
	for gi := 0; gi < 3; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				res, err := s.LocalAverage(radius)
				if err != nil {
					errs <- err
					return
				}
				resMu.Lock()
				captured = append(captured, res)
				resMu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Cold-solve every version once, then match captured results.
	refs := make([]*AverageResult, len(versions))
	for i, v := range versions {
		ref, err := NewSolverFromGraph(v, sessionGraph(v)).LocalAverage(radius)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	match := func(a, b *AverageResult) bool {
		if len(a.X) != len(b.X) {
			return false
		}
		for v := range a.X {
			if a.X[v] != b.X[v] || a.LocalOmega[v] != b.LocalOmega[v] {
				return false
			}
		}
		return a.PartyBound == b.PartyBound && a.ResourceBound == b.ResourceBound
	}
	for ci, got := range captured {
		ok := false
		for _, ref := range refs {
			if match(got, ref) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("captured result %d matches no serial version (of %d)", ci, len(versions))
		}
	}
}

// TestSessionTopologyThenWeights pins the composition: structural churn
// followed by weight updates on the churned structure (including rows
// and agents created by the churn) stays bit-identical to cold.
func TestSessionTopologyThenWeights(t *testing.T) {
	in, _ := gen.Torus([]int{6, 6}, gen.LatticeOptions{})
	s := NewSolverFromGraph(in, sessionGraph(in))
	if _, err := s.LocalAverage(1); err != nil {
		t.Fatal(err)
	}
	// Add an agent wired into resource 3 and a brand-new resource row.
	newAgent := in.NumAgents()
	newRes := in.NumResources()
	ops := []mmlp.TopoUpdate{
		mmlp.AddAgent(),
		mmlp.AddResourceEdge(3, newAgent, 0.5),
		mmlp.AddResourceEdge(newRes, newAgent, 1),
		mmlp.AddResourceEdge(newRes, 7, 2),
		mmlp.AddPartyEdge(11, newAgent, 1.5),
	}
	mirror, _, err := in.ApplyTopo(ops)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateTopology(ops); err != nil {
		t.Fatal(err)
	}
	// Now patch a coefficient on the churn-created row. The graph
	// handed out after the churn is a snapshot: the in-place weight
	// patch must clone the coefficient arrays first, never mutate it.
	_, heldG := s.Snapshot()
	heldCoeff := heldG.CSR().ResourceCoeffs(newRes)[0]
	deltas := []WeightDelta{{Kind: ResourceWeight, Row: newRes, Agent: newAgent, Coeff: 3}}
	if err := s.UpdateWeights(deltas); err != nil {
		t.Fatal(err)
	}
	if got := heldG.CSR().ResourceCoeffs(newRes)[0]; got != heldCoeff {
		t.Fatalf("weight update mutated the held graph snapshot: coeff %v -> %v", heldCoeff, got)
	}
	mirror = applyMirrorDeltas(t, mirror, deltas)

	inc, err := s.LocalAverage(1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LocalAverageOpt(mirror, sessionGraph(mirror), 1, AverageOptions{NoDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	sameAverageResult(t, "topo+weights", inc, ref)
}

// TestSessionTopologyTwoRadiiVsCold is the differential check at a size
// where a patch's dirty balls cover only part of the instance, so a
// structural row the patch moved but did not name — a row whose support
// is unchanged while a member's ball grew or shrank — must still be
// re-derived. The session keeps two radii, one solved and one
// certificate-only, and after every interleaved topology or weight batch
// both must equal a cold session bit for bit.
func TestSessionTopologyTwoRadiiVsCold(t *testing.T) {
	for _, radii := range [][2]int{{1, 2}, {2, 1}} {
		solved, certOnly := radii[0], radii[1]
		t.Run(fmt.Sprintf("solved R=%d cert R=%d", solved, certOnly), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(37 + solved)))
			in, _ := gen.Torus([]int{12, 12}, gen.LatticeOptions{RandomWeights: true, Rng: rng})
			s := NewSolverFromGraph(in, sessionGraph(in))
			if _, err := s.LocalAverage(solved); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Certificate(certOnly); err != nil {
				t.Fatal(err)
			}
			mirror := in
			for batch := 0; batch < 12; batch++ {
				if batch%3 != 2 {
					ops, next := gen.RandomTopoBatch(mirror, rng, 1+rng.Intn(3))
					if _, err := s.UpdateTopology(ops); err != nil {
						t.Fatal(err)
					}
					mirror = next
				} else {
					deltas := randomChurnDeltas(mirror, rng, 1+rng.Intn(3))
					if len(deltas) == 0 {
						continue
					}
					if err := s.UpdateWeights(deltas); err != nil {
						t.Fatal(err)
					}
					mirror = applyMirrorDeltas(t, mirror, deltas)
				}
				label := fmt.Sprintf("batch %d", batch)
				cold := NewSolverFromGraph(mirror, sessionGraph(mirror))
				for _, r := range []int{certOnly, solved} {
					pb, rb, err := s.Certificate(r)
					if err != nil {
						t.Fatal(err)
					}
					pbRef, rbRef, err := cold.Certificate(r)
					if err != nil {
						t.Fatal(err)
					}
					if pb != pbRef || rb != rbRef {
						t.Fatalf("%s: R=%d certificate (%v,%v), want (%v,%v)", label, r, pb, rb, pbRef, rbRef)
					}
				}
				inc, err := s.LocalAverage(solved)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := cold.LocalAverage(solved)
				if err != nil {
					t.Fatal(err)
				}
				sameAverageResult(t, label, inc, ref)
			}
		})
	}
}

// TestSessionTopologyStructuralRowsLocal is the locality oracle of the
// structural patch: toggling one resource edge on a unit torus re-derives
// the same number of certificate rows whatever the torus size, since the
// rows a patch reaches lie within a ball of the toggled edge.
func TestSessionTopologyStructuralRowsLocal(t *testing.T) {
	for _, radius := range []int{1, 2} {
		var counts []int
		for _, side := range []int{24, 96} {
			in, _ := gen.Torus([]int{side, side}, gen.LatticeOptions{})
			s := NewSolverFromGraph(in, sessionGraph(in))
			if _, err := s.LocalAverage(radius); err != nil {
				t.Fatal(err)
			}
			agent := in.Resource(0)[0].Agent
			before := s.Stats().StructuralRows
			for _, op := range []mmlp.TopoUpdate{mmlp.RemoveResourceEdge(0, agent), mmlp.AddResourceEdge(0, agent, 1)} {
				if _, err := s.UpdateTopology([]mmlp.TopoUpdate{op}); err != nil {
					t.Fatal(err)
				}
			}
			rows := s.Stats().StructuralRows - before
			if rows == 0 {
				t.Fatalf("%d×%d R=%d: the toggle re-derived no rows", side, side, radius)
			}
			counts = append(counts, rows)
		}
		if counts[0] != counts[1] {
			t.Errorf("R=%d: a one-edge toggle re-derived %d rows at 24×24 but %d at 96×96", radius, counts[0], counts[1])
		}
	}
}
