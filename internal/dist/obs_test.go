package dist

import (
	"testing"

	"maxminlp/internal/gen"
	"maxminlp/internal/obs"
)

// TestEnginesObsBitIdentity runs every engine with and without metrics
// attached and requires identical traces — output X, rounds, messages,
// payload — plus plausibly populated counters on the instrumented side.
func TestEnginesObsBitIdentity(t *testing.T) {
	in, _ := gen.Torus([]int{6, 6}, gen.LatticeOptions{})
	g := fullGraph(in)
	plain, err := NewNetwork(in, g)
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := NewNetwork(in, fullGraph(in))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := obs.NewDistMetrics(reg)
	instrumented.SetObs(m)

	p := AverageProtocol{Radius: 1}
	engines := []struct {
		name string
		run  func(nw *Network) (*Trace, error)
	}{
		{"sequential", func(nw *Network) (*Trace, error) { return nw.runSequential(p) }},
		{"sharded", func(nw *Network) (*Trace, error) { return nw.runSharded(p, 4) }},
	}
	for _, e := range engines {
		want, err := e.run(plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.run(instrumented)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rounds != want.Rounds || got.Messages != want.Messages ||
			got.Payload != want.Payload || got.MaxNodePayload != want.MaxNodePayload {
			t.Fatalf("%s: trace (obs on) %+v != (obs off) %+v", e.name, got, want)
		}
		for v := range want.X {
			if got.X[v] != want.X[v] {
				t.Fatalf("%s: X[%d] = %v, want %v", e.name, v, got.X[v], want.X[v])
			}
		}
		if m.EngineRuns(e.name).Value() != 1 {
			t.Errorf("%s: run counter = %d, want 1", e.name, m.EngineRuns(e.name).Value())
		}
	}
	if m.Messages.Value() == 0 || m.Records.Value() == 0 || m.Rounds.Value() == 0 {
		t.Errorf("dist counters empty: messages=%d records=%d rounds=%d",
			m.Messages.Value(), m.Records.Value(), m.Rounds.Value())
	}
	// The sequential engine observes per-round message counts; the
	// sharded engine records barrier wait time (2 awaits per shard per
	// round).
	if m.RoundMessages.Count() == 0 {
		t.Error("no per-round message counts recorded")
	}
	if m.BarrierWait.Count() == 0 {
		t.Error("no barrier wait latencies recorded")
	}
}
