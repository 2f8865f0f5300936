package core

import (
	"math/rand"
	"testing"

	"maxminlp/internal/gen"
	"maxminlp/internal/mmlp"
)

// FuzzTopologyIncrementalVsCold is the differential churn fuzzer: a
// random instance family (derived from seed) takes a script-driven
// sequence of interleaved topology and weight update batches against one
// warm Solver session, and after every batch the session's Safe,
// LocalAverage and Certificate outputs must be bit-identical to a cold
// solver built over an independently mutated mirror instance. A 10s
// smoke run is wired into CI next to the other fuzz targets.
func FuzzTopologyIncrementalVsCold(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 7, 2})
	f.Add(int64(42), []byte{9, 1})
	f.Add(int64(7), []byte{4, 4, 4, 4, 4, 4})
	f.Add(int64(-13), []byte{255, 128, 63})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		rng := rand.New(rand.NewSource(seed))
		var in *mmlp.Instance
		switch rng.Intn(3) {
		case 0:
			in, _ = gen.Torus([]int{3 + rng.Intn(3), 3 + rng.Intn(3)}, gen.LatticeOptions{RandomWeights: true, Rng: rng})
		case 1:
			in = gen.Random(gen.RandomOptions{
				Agents:    8 + rng.Intn(20),
				Resources: 6 + rng.Intn(15),
				Parties:   2 + rng.Intn(8),
				MaxVI:     1 + rng.Intn(3),
				MaxVK:     1 + rng.Intn(3),
			}, rng)
		default:
			in, _ = gen.Cycle(8+rng.Intn(16), gen.LatticeOptions{RandomWeights: true, Rng: rng})
		}
		radius := 1 + rng.Intn(2)

		s := NewSolverFromGraph(in, sessionGraph(in))
		if _, err := s.LocalAverage(radius); err != nil {
			t.Fatalf("warm solve: %v", err)
		}
		ballBuilds := s.Stats().BallIndexBuilds

		mirror := in
		for bi := 0; bi < len(script) && bi < 6; bi++ {
			b := int(script[bi])
			if b%2 == 0 {
				ops, next := gen.RandomTopoBatch(mirror, rng, 1+(b/2)%4)
				if _, err := s.UpdateTopology(ops); err != nil {
					t.Fatalf("topology batch %d: %v", bi, err)
				}
				mirror = next
			} else {
				deltas := randomChurnDeltas(mirror, rng, 1+(b/2)%4)
				if len(deltas) == 0 {
					continue
				}
				if err := s.UpdateWeights(deltas); err != nil {
					t.Fatalf("weight batch %d: %v", bi, err)
				}
				mirror = applyMirrorDeltas(t, mirror, deltas)
			}

			inc, err := s.LocalAverage(radius)
			if err != nil {
				t.Fatalf("incremental solve after batch %d: %v", bi, err)
			}
			cold, err := NewSolverFromGraph(mirror, sessionGraph(mirror)).LocalAverage(radius)
			if err != nil {
				t.Fatalf("cold solve after batch %d: %v", bi, err)
			}
			sameAverageResult(t, "fuzz incremental vs cold", inc, cold)
			checkCacheLive(t, s, "fuzz batch")
			if v := mirror.Violation(inc.X); v > 1e-9 {
				t.Fatalf("batch %d: incremental X infeasible on mutated instance (violation %v)", bi, v)
			}

			safe := s.Safe()
			for v, want := range Safe(mirror) {
				if safe[v] != want {
					t.Fatalf("batch %d: Safe[%d] = %v, want %v", bi, v, safe[v], want)
				}
			}
			pb, rb, err := s.Certificate(radius)
			if err != nil {
				t.Fatal(err)
			}
			pbRef, rbRef, err := Certificate(mirror, sessionGraph(mirror), radius)
			if err != nil {
				t.Fatal(err)
			}
			if pb != pbRef || rb != rbRef {
				t.Fatalf("batch %d: certificate (%v,%v) != (%v,%v)", bi, pb, rb, pbRef, rbRef)
			}
		}
		if got := s.Stats().BallIndexBuilds; got != ballBuilds {
			t.Fatalf("churn rebuilt ball indexes: %d -> %d", ballBuilds, got)
		}
	})
}
