package dist

import (
	"math/rand"
	"testing"

	"maxminlp/internal/core"
	"maxminlp/internal/gen"
	"maxminlp/internal/hypergraph"
	"maxminlp/internal/mmlp"
)

func fullGraph(in *mmlp.Instance) *hypergraph.Graph {
	return hypergraph.FromInstance(in, hypergraph.Options{})
}

type testCase struct {
	name  string
	in    *mmlp.Instance
	radii []int
}

func testCases(t *testing.T) []testCase {
	t.Helper()
	torus, _ := gen.Torus([]int{6, 6}, gen.LatticeOptions{})
	cycle, _ := gen.Cycle(20, gen.LatticeOptions{})
	rng := rand.New(rand.NewSource(9))
	random := gen.Random(gen.RandomOptions{
		Agents: 30, Resources: 24, Parties: 12, MaxVI: 3, MaxVK: 3,
	}, rng)
	geometric, _ := gen.UnitDisk(gen.UnitDiskOptions{
		Nodes: 40, Radius: 0.25, MaxNeighbors: 4, RandomWeights: true,
	}, rand.New(rand.NewSource(11)))
	return []testCase{
		{"torus6x6", torus, []int{0, 1}},
		{"cycle20", cycle, []int{1, 2}},
		{"random30", random, []int{1}},
		{"geometric40", geometric, []int{1}},
	}
}

// shardCounts are the worker-pool sizes the sharded engine is checked
// with: degenerate (1), uneven (3) and more shards than some test
// instances have agents.
var shardCounts = []int{1, 3, 64}

func mustNetwork(t *testing.T, in *mmlp.Instance, g *hypergraph.Graph) *Network {
	t.Helper()
	nw, err := NewNetwork(in, g)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestEnginesAgreeWithCore checks the central contract of the package:
// the sequential engine produces outputs bit-identical to the
// centralised safe algorithm and to the centralised Theorem-3 averaging
// algorithm, and the sharded engine reproduces its outputs and cost
// trace, on torus, cycle, random and geometric instances.
func TestEnginesAgreeWithCore(t *testing.T) {
	for _, tc := range testCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			g := fullGraph(tc.in)
			nw := mustNetwork(t, tc.in, g)

			seq, err := nw.runSequential(SafeProtocol{})
			if err != nil {
				t.Fatal(err)
			}
			want := core.Safe(tc.in)
			for v := range want {
				if seq.X[v] != want[v] {
					t.Fatalf("safe: sequential diverged from core at %d: %v vs %v", v, seq.X[v], want[v])
				}
			}

			for _, R := range tc.radii {
				seq, err := nw.runSequential(AverageProtocol{Radius: R})
				if err != nil {
					t.Fatal(err)
				}
				avg, err := core.LocalAverage(tc.in, g, R)
				if err != nil {
					t.Fatal(err)
				}
				for v := range avg.X {
					if seq.X[v] != avg.X[v] {
						t.Fatalf("R=%d: sequential diverged from core at %d: %v vs %v", R, v, seq.X[v], avg.X[v])
					}
				}
				for _, shards := range shardCounts {
					sh, err := nw.runSharded(AverageProtocol{Radius: R}, shards)
					if err != nil {
						t.Fatal(err)
					}
					for v := range seq.X {
						if sh.X[v] != seq.X[v] {
							t.Fatalf("R=%d shards=%d: sharded engine diverged at %d", R, shards, v)
						}
					}
					if !tracesEqual(sh, seq) {
						t.Fatalf("R=%d shards=%d: traces diverge: seq %+v vs sharded %+v", R, shards, seq, sh)
					}
				}
			}
		})
	}
}

// tracesEqual compares everything a trace records except the protocol
// name: outputs, rounds and the full cost accounting.
func tracesEqual(a, b *Trace) bool {
	if a.Rounds != b.Rounds || a.Messages != b.Messages ||
		a.Payload != b.Payload || a.MaxNodePayload != b.MaxNodePayload {
		return false
	}
	for v := range a.X {
		if a.X[v] != b.X[v] {
			return false
		}
	}
	return true
}

// TestShardedEngineStress reruns the sharded engine with several shard
// counts on a larger torus; under `go test -race` this exercises the
// shard barrier and the cross-shard outbox reads for data races, and it
// pins determinism across repetitions and shard counts.
func TestShardedEngineStress(t *testing.T) {
	in, _ := gen.Torus([]int{8, 8}, gen.LatticeOptions{})
	g := fullGraph(in)
	nw := mustNetwork(t, in, g)
	first, err := nw.runSequential(AverageProtocol{Radius: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1, 2, 5, 64} {
		for rep := 0; rep < 2; rep++ {
			tr, err := nw.runSharded(AverageProtocol{Radius: 1}, shards)
			if err != nil {
				t.Fatal(err)
			}
			if !tracesEqual(tr, first) {
				t.Fatalf("shards=%d rep=%d: diverged from sequential reference", shards, rep)
			}
		}
	}
}

// TestTraceAccounting pins the communication-cost semantics: the safe
// protocol is zero-round and silent, while averaging floods for 2R+1
// rounds with every record delivered once per edge direction within the
// horizon.
func TestTraceAccounting(t *testing.T) {
	in, _ := gen.Torus([]int{6, 6}, gen.LatticeOptions{})
	g := fullGraph(in)
	nw := mustNetwork(t, in, g)

	safe, err := nw.runSequential(SafeProtocol{})
	if err != nil {
		t.Fatal(err)
	}
	if safe.Rounds != 0 || safe.Messages != 0 || safe.Payload != 0 || safe.MaxNodePayload != 0 {
		t.Fatalf("safe should be silent, got %+v", safe)
	}

	avg, err := nw.runSequential(AverageProtocol{Radius: 1})
	if err != nil {
		t.Fatal(err)
	}
	if avg.Rounds != 3 {
		t.Fatalf("averaging R=1 should run 2R+1 = 3 rounds, got %d", avg.Rounds)
	}
	if avg.Messages == 0 || avg.Payload == 0 || avg.MaxNodePayload == 0 {
		t.Fatalf("missing cost accounting: %+v", avg)
	}
	if avg.MaxNodePayload > avg.Payload {
		t.Fatalf("per-node payload %d exceeds total %d", avg.MaxNodePayload, avg.Payload)
	}
	// Flooding must deliver every record within the horizon to every
	// node at least once, so the total payload is bounded below by
	// Σ_v (|B(v, horizon)| − 1) — the records each node must learn.
	wantPayload := 0
	for v := 0; v < in.NumAgents(); v++ {
		wantPayload += len(g.Ball(v, avg.Rounds)) - 1
	}
	if avg.Payload < wantPayload {
		t.Fatalf("payload %d below the %d records the nodes must have received", avg.Payload, wantPayload)
	}
}

// TestStabilizingRecovery corrupts random node state mid-run and asserts
// the §1.1 guarantee: outputs return to the exact fault-free solution
// within one horizon of the fault.
func TestStabilizingRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name   string
		dims   []int
		radius int
	}{
		{"torus5x5-R1", []int{5, 5}, 1},
		{"cycle24-R2", []int{24}, 2},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			in, _ := gen.Torus(cse.dims, gen.LatticeOptions{})
			g := fullGraph(in)
			nw := mustNetwork(t, in, g)
			p := StabilizingAverage{Radius: cse.radius}
			fault := p.Horizon() + 1
			rounds := fault + p.Horizon() + 2
			corrupted := 0
			run, err := nw.RunStabilizing(p, rounds, fault, func(nodes []*StabNodeHandle) {
				for _, h := range nodes {
					if rng.Intn(2) == 0 {
						h.Drop()
						corrupted++
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if corrupted == 0 {
				t.Fatal("fault injection corrupted no nodes; choose another seed")
			}
			if len(run.Outputs) != rounds {
				t.Fatalf("want %d output vectors, got %d", rounds, len(run.Outputs))
			}
			if run.StableFrom < 0 || run.StableFrom > fault+p.Horizon() {
				t.Fatalf("StableFrom = %d outside [0, fault+horizon] = [0, %d]", run.StableFrom, fault+p.Horizon())
			}
			// The reference must be the converged averaging output.
			avg, err := core.LocalAverage(in, g, cse.radius)
			if err != nil {
				t.Fatal(err)
			}
			for v := range avg.X {
				if run.Reference[v] != avg.X[v] {
					t.Fatalf("reference diverged from core at %d", v)
				}
				if run.Outputs[rounds-1][v] != avg.X[v] {
					t.Fatalf("final output still perturbed at %d", v)
				}
			}
		})
	}
}

// TestStabilizingFaultFree checks the cold-start behaviour: with no
// fault injected, the stabilising engine converges to the reference
// within one horizon of round 0 and stays there.
func TestStabilizingFaultFree(t *testing.T) {
	in, _ := gen.Torus([]int{5, 5}, gen.LatticeOptions{})
	nw := mustNetwork(t, in, fullGraph(in))
	p := StabilizingAverage{Radius: 1}
	run, err := nw.RunStabilizing(p, p.Horizon()+3, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.StableFrom < 0 || run.StableFrom > p.Horizon() {
		t.Fatalf("fault-free StableFrom = %d, want ≤ horizon %d", run.StableFrom, p.Horizon())
	}
}

// TestStabilizingProtocolUnderFloodingEngines checks that
// StabilizingAverage is also a plain Protocol whose one-shot run matches
// AverageProtocol exactly.
func TestStabilizingProtocolUnderFloodingEngines(t *testing.T) {
	in, _ := gen.Cycle(16, gen.LatticeOptions{})
	nw := mustNetwork(t, in, fullGraph(in))
	a, err := nw.runSequential(AverageProtocol{Radius: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := nw.runSequential(StabilizingAverage{Radius: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.X {
		if a.X[v] != s.X[v] {
			t.Fatalf("stabilizing protocol diverged at %d", v)
		}
	}
}

// TestValidation covers the error paths of the runtime.
func TestValidation(t *testing.T) {
	in, _ := gen.Cycle(8, gen.LatticeOptions{})
	other, _ := gen.Cycle(9, gen.LatticeOptions{})
	if _, err := NewNetwork(in, fullGraph(other)); err == nil {
		t.Fatal("mismatched graph accepted")
	}
	if _, err := NewNetwork(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
	nw := mustNetwork(t, in, fullGraph(in))
	if _, err := nw.runSequential(nil); err == nil {
		t.Fatal("nil protocol accepted")
	}
	if _, err := nw.runSequential(AverageProtocol{Radius: -1}); err == nil {
		t.Fatal("negative radius accepted")
	}
	if _, err := nw.RunStabilizing(StabilizingAverage{Radius: 1}, 0, 0, nil); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

// TestSessionNetworkAgreement checks that a session-backed network —
// engines reading the session's retained ball index and solving through
// its shared cache — produces outputs and cost traces bit-identical to
// a plain network, under every engine, and that the session's cache
// actually absorbed the nodes' redundant re-solves.
func TestSessionNetworkAgreement(t *testing.T) {
	for _, tc := range testCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			g := fullGraph(tc.in)
			plain := mustNetwork(t, tc.in, g)
			sess := core.NewSolverFromGraph(tc.in, fullGraph(tc.in))
			// Warm the session first, so the engines reuse query-solved LPs.
			for _, radius := range tc.radii {
				if _, err := sess.LocalAverage(radius); err != nil {
					t.Fatal(err)
				}
			}
			snw, err := NewSessionNetwork(sess)
			if err != nil {
				t.Fatal(err)
			}
			for _, radius := range tc.radii {
				proto := AverageProtocol{Radius: radius}
				ref, err := plain.runSequential(proto)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range Engines() {
					eng, err := New(name, Options{Shards: 3})
					if err != nil {
						t.Fatal(err)
					}
					tr, err := eng.Run(snw, proto)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if eng.CostExact() && (tr.Rounds != ref.Rounds || tr.Messages != ref.Messages ||
						tr.Payload != ref.Payload || tr.MaxNodePayload != ref.MaxNodePayload) {
						t.Errorf("%s R=%d: trace diverged: %+v vs %+v", name, radius, tr, ref)
					}
					for v := range ref.X {
						if tr.X[v] != ref.X[v] {
							t.Fatalf("%s R=%d: X[%d] = %v, want %v", name, radius, v, tr.X[v], ref.X[v])
						}
					}
				}
			}
			if sess.Cache().Hits() == 0 {
				t.Error("session cache served no hits to the engines")
			}
		})
	}
}

// TestSessionNetworkValidation covers the nil-session error path.
func TestSessionNetworkValidation(t *testing.T) {
	if _, err := NewSessionNetwork(nil); err == nil {
		t.Error("nil session accepted")
	}
}
