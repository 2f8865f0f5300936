package dist

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"maxminlp/internal/core"
	"maxminlp/internal/gen"
	"maxminlp/internal/mmlp"
)

// The golden-trace regression corpus: for each canonical family and
// radius, the full trace of the Theorem-3 protocol — output vector
// (exact float64 bits, hex-encoded), rounds, messages, payload — is
// committed under testdata/, once for the pristine instance and once
// after a fixed topology-churn batch. Every engine (sequential, sharded,
// session-backed, post-churn resynced) must reproduce the committed
// traces bit-for-bit, so an engine or solver refactor that changes any
// output bit — or any message count — fails loudly instead of silently.
//
// Regenerate with:
//
//	go test ./internal/dist -run TestGoldenTraces -update

var updateGolden = flag.Bool("update", false, "rewrite the golden trace files under testdata/")

type goldenTrace struct {
	Protocol       string   `json:"protocol"`
	Rounds         int      `json:"rounds"`
	Messages       int      `json:"messages"`
	Payload        int      `json:"payload"`
	MaxNodePayload int      `json:"maxNodePayload"`
	X              []string `json:"x"` // exact hex float64 per agent
}

type goldenFile struct {
	Family  string      `json:"family"`
	Radius  int         `json:"radius"`
	Initial goldenTrace `json:"initial"`
	Churned goldenTrace `json:"churned"`
}

func encodeTrace(tr *Trace) goldenTrace {
	g := goldenTrace{
		Protocol:       tr.Protocol,
		Rounds:         tr.Rounds,
		Messages:       tr.Messages,
		Payload:        tr.Payload,
		MaxNodePayload: tr.MaxNodePayload,
		X:              make([]string, len(tr.X)),
	}
	for i, x := range tr.X {
		g.X[i] = strconv.FormatFloat(x, 'x', -1, 64)
	}
	return g
}

func sameGolden(t *testing.T, label string, got, want goldenTrace) {
	t.Helper()
	if got.Protocol != want.Protocol || got.Rounds != want.Rounds ||
		got.Messages != want.Messages || got.Payload != want.Payload ||
		got.MaxNodePayload != want.MaxNodePayload {
		t.Fatalf("%s: trace header (%s r=%d m=%d p=%d mnp=%d) != golden (%s r=%d m=%d p=%d mnp=%d)",
			label, got.Protocol, got.Rounds, got.Messages, got.Payload, got.MaxNodePayload,
			want.Protocol, want.Rounds, want.Messages, want.Payload, want.MaxNodePayload)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: %d outputs, golden has %d", label, len(got.X), len(want.X))
	}
	for v := range want.X {
		if got.X[v] != want.X[v] {
			t.Fatalf("%s: X[%d] = %s, golden %s", label, v, got.X[v], want.X[v])
		}
	}
}

// goldenChurn is the fixed structural batch applied to every family: a
// node joins (wired into resource 0 and party 0), and node 1 leaves.
func goldenChurn(in *mmlp.Instance) []mmlp.TopoUpdate {
	n := in.NumAgents()
	return []mmlp.TopoUpdate{
		mmlp.AddAgent(),
		mmlp.AddResourceEdge(0, n, 1.25),
		mmlp.AddPartyEdge(0, n, 0.75),
		mmlp.RemoveAgent(1),
	}
}

// runAllEngines executes the protocol on every engine New accepts,
// requires bit-identical results, and returns the common trace. Engines whose cost accounting matches the
// sequential reference (CostExact) must reproduce the full trace;
// others (stabilizing) must still reproduce every output bit.
func runAllEngines(t *testing.T, label string, nw *Network, p Protocol) *Trace {
	t.Helper()
	seq, err := nw.runSequential(p)
	if err != nil {
		t.Fatalf("%s: sequential: %v", label, err)
	}
	for _, name := range Engines() {
		eng, err := New(name, Options{Shards: 3})
		if err != nil {
			t.Fatalf("%s: New(%q): %v", label, name, err)
		}
		tr, err := eng.Run(nw, p)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, name, err)
		}
		if eng.CostExact() {
			sameTraceGolden(t, label+"/"+name, tr, seq)
			continue
		}
		if len(tr.X) != len(seq.X) {
			t.Fatalf("%s: %s: %d outputs, want %d", label, name, len(tr.X), len(seq.X))
		}
		for v := range seq.X {
			if tr.X[v] != seq.X[v] {
				t.Fatalf("%s: %s: X[%d] = %x, want %x", label, name, v, tr.X[v], seq.X[v])
			}
		}
	}
	return seq
}

func sameTraceGolden(t *testing.T, label string, got, want *Trace) {
	t.Helper()
	sameGolden(t, label, encodeTrace(got), encodeTrace(want))
}

func TestGoldenTraces(t *testing.T) {
	rngW := rand.New(rand.NewSource(33))
	torus, _ := gen.Torus([]int{6, 6}, gen.LatticeOptions{RandomWeights: true, Rng: rngW})
	grid, _ := gen.Grid([]int{5, 5}, gen.LatticeOptions{RandomWeights: true, Rng: rngW})
	geo, _ := gen.UnitDisk(gen.UnitDiskOptions{
		Nodes: 30, Radius: 0.28, MaxNeighbors: 4, RandomWeights: true,
	}, rand.New(rand.NewSource(35)))
	families := []struct {
		name string
		in   *mmlp.Instance
	}{
		{"torus6x6", torus},
		{"grid5x5", grid},
		{"geometric30", geo},
	}
	for _, fam := range families {
		for _, radius := range []int{1, 2} {
			name := fam.name + "_R" + strconv.Itoa(radius)
			t.Run(name, func(t *testing.T) {
				proto := AverageProtocol{Radius: radius}

				// Initial traces: plain network and session-backed network
				// must agree, across every engine.
				plain, err := NewNetwork(fam.in, fullGraph(fam.in))
				if err != nil {
					t.Fatal(err)
				}
				initial := runAllEngines(t, "initial/plain", plain, proto)
				sess := core.NewSolverFromGraph(fam.in, fullGraph(fam.in))
				snw, err := NewSessionNetwork(sess)
				if err != nil {
					t.Fatal(err)
				}
				sameTraceGolden(t, "initial/session", runAllEngines(t, "initial/session", snw, proto), initial)

				// Churn: patch the session, resync the session network, and
				// require agreement with a cold network over the mutated
				// instance — nodes appeared and disappeared in between.
				ops := goldenChurn(fam.in)
				mirror, _, err := fam.in.ApplyTopo(ops)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sess.UpdateTopology(ops); err != nil {
					t.Fatal(err)
				}
				if err := snw.Resync(); err != nil {
					t.Fatal(err)
				}
				churned := runAllEngines(t, "churned/session", snw, proto)
				coldNW, err := NewNetwork(mirror, fullGraph(mirror))
				if err != nil {
					t.Fatal(err)
				}
				sameTraceGolden(t, "churned/cold", runAllEngines(t, "churned/cold", coldNW, proto), churned)
				if tr := churned; tr.X[1] != 0 {
					t.Errorf("removed node 1 announced activity %v, want 0", tr.X[1])
				}

				// Golden comparison (or regeneration with -update).
				path := filepath.Join("testdata", "trace_"+name+".json")
				gf := goldenFile{
					Family:  fam.name,
					Radius:  radius,
					Initial: encodeTrace(initial),
					Churned: encodeTrace(churned),
				}
				if *updateGolden {
					blob, err := json.MarshalIndent(gf, "", "\t")
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				blob, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to create): %v", err)
				}
				var want goldenFile
				if err := json.Unmarshal(blob, &want); err != nil {
					t.Fatal(err)
				}
				sameGolden(t, "golden/initial", gf.Initial, want.Initial)
				sameGolden(t, "golden/churned", gf.Churned, want.Churned)
			})
		}
	}
}

// TestSessionNetworkChurnAgainstEngines drives random churn through a
// session-backed network and checks, after every Resync, that all
// engines agree with a cold network over the independently mutated
// mirror — the distributed counterpart of TestSessionTopologyVsCold.
func TestSessionNetworkChurnAgainstEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	in, _ := gen.Torus([]int{5, 5}, gen.LatticeOptions{RandomWeights: true, Rng: rng})
	sess := core.NewSolverFromGraph(in, fullGraph(in))
	nw, err := NewSessionNetwork(sess)
	if err != nil {
		t.Fatal(err)
	}
	proto := AverageProtocol{Radius: 1}
	mirror := in
	for round := 0; round < 4; round++ {
		preChurn, err := nw.runSequential(proto)
		if err != nil {
			t.Fatal(err)
		}
		ops, next := gen.RandomTopoBatch(mirror, rng, 1+rng.Intn(3))
		if _, err := sess.UpdateTopology(ops); err != nil {
			t.Fatal(err)
		}
		// Before Resync the network must keep serving its snapshot: the
		// session's patched ball indexes describe a different graph than
		// the gathered records and must not leak into the run.
		stale, err := nw.runSequential(proto)
		if err != nil {
			t.Fatal(err)
		}
		sameTraceGolden(t, "pre-resync snapshot", stale, preChurn)
		mirror = next
		if err := nw.Resync(); err != nil {
			t.Fatal(err)
		}
		got := runAllEngines(t, "churned", nw, proto)
		coldNW, err := NewNetwork(mirror, fullGraph(mirror))
		if err != nil {
			t.Fatal(err)
		}
		want, err := coldNW.runSequential(proto)
		if err != nil {
			t.Fatal(err)
		}
		sameTraceGolden(t, "vs cold", got, want)
	}
	if nw2, err := NewNetwork(in, fullGraph(in)); err != nil || nw2.Resync() == nil {
		t.Error("Resync on a plain network should fail")
	}
}
