package dist

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestEngineRegistryNames pins the engine names (sorted) so a renamed or
// dropped engine fails loudly.
func TestEngineRegistryNames(t *testing.T) {
	want := []string{"partitioned", "sequential", "sharded", "stabilizing"}
	if got := Engines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Engines() = %v, want %v", got, want)
	}
}

func TestEngineRegistryErrors(t *testing.T) {
	if _, err := New("nonexistent", Options{}); err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Fatalf("unknown engine error should list the known names, got %v", err)
	}
}

// TestEngineConformance is the engine-wide conformance suite: every
// engine New accepts must reproduce the sequential reference bit for bit
// on every test family — the full trace for cost-exact engines, every
// output bit for the rest — for both protocols, on plain networks.
func TestEngineConformance(t *testing.T) {
	for _, tc := range testCases(t) {
		nw := mustNetwork(t, tc.in, fullGraph(tc.in))
		protos := []Protocol{SafeProtocol{}}
		for _, r := range tc.radii {
			protos = append(protos, AverageProtocol{Radius: r})
		}
		for _, p := range protos {
			seq, err := nw.runSequential(p)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, p.Name(), err)
			}
			for _, name := range Engines() {
				for _, shards := range []int{1, 2, 5} {
					eng, err := New(name, Options{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					if eng.Name() != name {
						t.Fatalf("New(%q).Name() = %q", name, eng.Name())
					}
					tr, err := eng.Run(nw, p)
					if err != nil {
						t.Fatalf("%s/%s/%s(%d): %v", tc.name, p.Name(), name, shards, err)
					}
					label := tc.name + "/" + p.Name() + "/" + name
					if eng.CostExact() {
						sameTraceGolden(t, label, tr, seq)
					} else {
						for v := range seq.X {
							if tr.X[v] != seq.X[v] {
								t.Fatalf("%s: X[%d] = %x, want %x", label, v, tr.X[v], seq.X[v])
							}
						}
					}
				}
			}
		}
	}
}

// TestPartitionOwnerInvertsBounds checks, exhaustively over small sizes,
// that Owner is the exact inverse of the contiguous Bounds split.
func TestPartitionOwnerInvertsBounds(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for m := 1; m <= 12; m++ {
			covered := 0
			for w := 0; w < m; w++ {
				pt := Partition{Self: w, Members: m}
				lo, hi := pt.Bounds(n)
				if lo != covered {
					t.Fatalf("n=%d m=%d: member %d starts at %d, want %d", n, m, w, lo, covered)
				}
				for v := lo; v < hi; v++ {
					if got := pt.Owner(v, n); got != w {
						t.Fatalf("n=%d m=%d: Owner(%d) = %d, want %d", n, m, v, got, w)
					}
				}
				covered = hi
			}
			if covered != n {
				t.Fatalf("n=%d m=%d: members cover [0,%d)", n, m, covered)
			}
		}
	}
}

func TestRunPartitionedValidation(t *testing.T) {
	tc := testCases(t)[0]
	nw := mustNetwork(t, tc.in, fullGraph(tc.in))
	ts := NewLoopback(2)
	if _, err := nw.RunPartitioned(AverageProtocol{Radius: 1}, Partition{Self: 2, Members: 2}, ts[0]); err == nil {
		t.Error("out-of-range partition accepted")
	}
	if _, err := nw.RunPartitioned(AverageProtocol{Radius: 1}, Partition{Self: 1, Members: 2}, ts[0]); err == nil {
		t.Error("mismatched transport accepted")
	}
	if _, err := nw.RunPartitioned(AverageProtocol{Radius: 1}, Partition{Self: 0, Members: 2}, nil); err == nil {
		t.Error("nil transport accepted")
	}
}

func TestMergePartsErrors(t *testing.T) {
	mk := func(lo, hi, rounds int) *PartialTrace {
		return &PartialTrace{Lo: lo, Hi: hi, Rounds: rounds, X: make([]float64, hi-lo)}
	}
	if _, err := MergeParts("p", 10, []*PartialTrace{mk(0, 5, 3), mk(6, 10, 3)}); err == nil {
		t.Error("gap accepted")
	}
	if _, err := MergeParts("p", 10, []*PartialTrace{mk(0, 5, 3), mk(5, 10, 4)}); err == nil {
		t.Error("round mismatch accepted")
	}
	if _, err := MergeParts("p", 10, []*PartialTrace{mk(0, 5, 3), nil}); err == nil {
		t.Error("nil part accepted")
	}
	if _, err := MergeParts("p", 12, []*PartialTrace{mk(0, 5, 3), mk(5, 10, 3)}); err == nil {
		t.Error("short cover accepted")
	}
	tr, err := MergeParts("p", 10, []*PartialTrace{mk(5, 10, 3), mk(0, 5, 3)})
	if err != nil || len(tr.X) != 10 || tr.Rounds != 3 {
		t.Errorf("unsorted valid parts: %+v, %v", tr, err)
	}
}

// TestRunPartitionedTCP runs the partitioned engine over a real TCP mesh
// on loopback — three OS-level members — and requires the merged trace
// to be bit-identical to the sequential reference. This is the tentpole
// wire path minus process isolation.
func TestRunPartitionedTCP(t *testing.T) {
	const members = 3
	for _, tc := range testCases(t) {
		seqNW := mustNetwork(t, tc.in, fullGraph(tc.in))
		p := AverageProtocol{Radius: tc.radii[len(tc.radii)-1]}
		seq, err := seqNW.runSequential(p)
		if err != nil {
			t.Fatal(err)
		}

		lns := make([]net.Listener, members)
		addrs := make([]string, members)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			lns[i] = ln
			addrs[i] = ln.Addr().String()
		}
		parts := make([]*PartialTrace, members)
		errs := make([]error, members)
		var wg sync.WaitGroup
		wg.Add(members)
		for w := 0; w < members; w++ {
			go func(w int) {
				defer wg.Done()
				mesh, err := NewTCPMesh(w, addrs, lns[w])
				if err != nil {
					errs[w] = err
					return
				}
				defer mesh.Close()
				// Each member simulates over its own independent Network,
				// as cluster workers do over their own replicas.
				nw, err := NewNetwork(tc.in, fullGraph(tc.in))
				if err != nil {
					errs[w] = err
					return
				}
				parts[w], errs[w] = nw.RunPartitioned(p, Partition{Self: w, Members: members}, mesh)
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("%s: member %d: %v", tc.name, w, err)
			}
		}
		got, err := MergeParts(p.Name(), tc.in.NumAgents(), parts)
		if err != nil {
			t.Fatal(err)
		}
		sameTraceGolden(t, tc.name+"/tcp", got, seq)
	}
}

// TestTCPMeshPeerFailure checks that a dead peer surfaces as an Exchange
// error on the survivors instead of a hang.
func TestTCPMeshPeerFailure(t *testing.T) {
	const members = 2
	lns := make([]net.Listener, members)
	addrs := make([]string, members)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	meshes := make([]*TCPMesh, members)
	var wg sync.WaitGroup
	wg.Add(members)
	for w := 0; w < members; w++ {
		go func(w int) {
			defer wg.Done()
			var err error
			meshes[w], err = NewTCPMesh(w, addrs, lns[w])
			if err != nil {
				t.Errorf("member %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	meshes[1].Close()
	out := make([][]byte, members)
	if _, err := meshes[0].Exchange(out); err == nil {
		t.Error("Exchange against a closed peer did not error")
	}
	// Every later Exchange must keep failing, not block.
	if _, err := meshes[0].Exchange(out); err == nil {
		t.Error("second Exchange against a closed peer did not error")
	}
	meshes[0].Close()

	if _, err := meshes[0].Exchange(make([][]byte, members+1)); err == nil {
		t.Error("wrong payload count accepted")
	}
}
