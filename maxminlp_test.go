package maxminlp_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"maxminlp"
)

// TestPublicAPIEndToEnd exercises the facade the way a downstream user
// would: build an instance, solve it three ways, check the guarantees.
func TestPublicAPIEndToEnd(t *testing.T) {
	b := maxminlp.NewBuilder(3)
	b.AddUnitResource(0, 1)
	b.AddUnitResource(1, 2)
	b.AddUniformParty(1, 0, 1)
	b.AddUniformParty(1, 2)
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	opt, err := maxminlp.SolveOptimal(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt.Omega-1) > 1e-7 {
		t.Fatalf("ω* = %v, want 1", opt.Omega)
	}

	safe := maxminlp.Safe(in)
	if v := in.Violation(safe); v > 1e-9 {
		t.Fatalf("safe infeasible: %v", v)
	}
	if ratio := opt.Omega / in.Objective(safe); ratio > maxminlp.SafeRatioBound(in)+1e-9 {
		t.Fatalf("safe ratio %v exceeds ΔVI bound %v", ratio, maxminlp.SafeRatioBound(in))
	}

	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	avg, err := maxminlp.LocalAverage(in, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v := in.Violation(avg.X); v > 1e-9 {
		t.Fatalf("average infeasible: %v", v)
	}
	if ratio := opt.Omega / in.Objective(avg.X); ratio > avg.RatioCertificate()+1e-6 {
		t.Fatalf("ratio %v exceeds certificate %v", ratio, avg.RatioCertificate())
	}
}

// runEngine runs p on nw under the named engine with the given shard
// count.
func runEngine(t *testing.T, nw *maxminlp.Network, name string, shards int, p maxminlp.Protocol) *maxminlp.Trace {
	t.Helper()
	eng, err := maxminlp.NewEngine(name, maxminlp.EngineOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Run(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPublicAPIDistributed(t *testing.T) {
	in, _ := maxminlp.Torus([]int{5, 5}, maxminlp.LatticeOptions{})
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	nw, err := maxminlp.NewNetwork(in, g)
	if err != nil {
		t.Fatal(err)
	}
	tr := runEngine(t, nw, "sharded", 0, maxminlp.AverageProtocol{Radius: 1})
	want, err := maxminlp.LocalAverage(in, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.X {
		if tr.X[v] != want.X[v] {
			t.Fatalf("agent %d: distributed %v != centralised %v", v, tr.X[v], want.X[v])
		}
	}
}

func TestPublicAPILowerBound(t *testing.T) {
	params := maxminlp.LowerBoundParams{DeltaVI: 3, DeltaVK: 2, R: 2, LocalHorizon: 1}
	c, err := maxminlp.BuildLowerBound(params)
	if err != nil {
		t.Fatal(err)
	}
	x := maxminlp.Safe(c.S)
	sp, err := c.DeriveSPrime(x)
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Check(x, sp)
	if !rep.OK() {
		t.Fatalf("checks failed: %v", rep.Errors)
	}
	if params.TheoremBound() != 1.5 {
		t.Fatalf("bound = %v, want 1.5", params.TheoremBound())
	}
}

func TestPublicAPIApplications(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sn := maxminlp.RandomSensorNetwork(maxminlp.SensorNetworkOptions{
		Sensors: 10, Relays: 4, Areas: 4,
		RadioRange: 0.4, SenseRange: 0.35, MaxLinksPerSensor: 2,
	}, rng)
	if _, err := sn.Instance(); err != nil {
		t.Fatal(err)
	}
	isp := maxminlp.RandomISP(maxminlp.ISPOptions{
		Customers: 4, LastMilesPerCustomer: 2, Routers: 3, RoutersPerLastMile: 2,
	}, rng)
	if _, err := isp.Instance(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	in, lat := maxminlp.Grid([]int{4, 4}, maxminlp.LatticeOptions{})
	if in.NumAgents() != 16 || lat.NumCells() != 16 {
		t.Fatal("grid shape wrong")
	}
	rng := rand.New(rand.NewSource(2))
	r := maxminlp.RandomInstance(maxminlp.RandomOptions{
		Agents: 10, Resources: 8, Parties: 4, MaxVI: 3, MaxVK: 2,
	}, rng)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPICSR exercises the flat-index surface: the CSR attached to
// NewGraph, the standalone constructor, SafeFlat agreement with Safe,
// the precomputed BallIndex, and the sharded engine.
func TestPublicAPICSR(t *testing.T) {
	in, _ := maxminlp.Torus([]int{5, 5}, maxminlp.LatticeOptions{})
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	csr := g.CSR()
	if csr == nil {
		t.Fatal("NewGraph did not attach a CSR index")
	}
	if csr.NumAgents() != in.NumAgents() || csr.Nonzeros() != in.Stats().Nonzeros {
		t.Fatal("CSR shape disagrees with the instance")
	}
	if maxminlp.NewCSR(in).Nonzeros() != csr.Nonzeros() {
		t.Fatal("standalone NewCSR disagrees")
	}

	safe := maxminlp.Safe(in)
	for v, x := range maxminlp.SafeFlat(csr) {
		if x != safe[v] {
			t.Fatalf("SafeFlat diverged from Safe at %d", v)
		}
	}

	bi := g.BallIndex(1, 4)
	for v := 0; v < in.NumAgents(); v++ {
		want := g.Ball(v, 1)
		got := bi.Ball(v)
		if len(got) != len(want) || bi.Size(v) != len(want) {
			t.Fatalf("ball size mismatch at %d", v)
		}
		for j := range want {
			if int(got[j]) != want[j] {
				t.Fatalf("ball mismatch at %d", v)
			}
			if !bi.Contains(v, got[j]) {
				t.Fatalf("Contains(%d, %d) = false", v, got[j])
			}
		}
	}

	nw, err := maxminlp.NewNetwork(in, g)
	if err != nil {
		t.Fatal(err)
	}
	seq := runEngine(t, nw, "sequential", 0, maxminlp.AverageProtocol{Radius: 1})
	sh := runEngine(t, nw, "sharded", 4, maxminlp.AverageProtocol{Radius: 1})
	for v := range seq.X {
		if sh.X[v] != seq.X[v] {
			t.Fatalf("sharded engine diverged at %d", v)
		}
	}
	if sh.Messages != seq.Messages || sh.Payload != seq.Payload {
		t.Fatal("sharded trace accounting diverged")
	}
}

// TestPublicAPISession exercises the Solver session surface end to end:
// construction, every query method against its free function, a weight
// update with incremental re-solve, and the session-backed distributed
// network.
func TestPublicAPISession(t *testing.T) {
	in, _ := maxminlp.Torus([]int{8, 8}, maxminlp.LatticeOptions{})
	sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})

	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	ref, err := maxminlp.LocalAverage(in, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.LocalAverage(1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range ref.X {
		if got.X[v] != ref.X[v] {
			t.Fatalf("session X[%d] = %v, want %v", v, got.X[v], ref.X[v])
		}
	}
	pb, rb, err := sess.Certificate(1)
	if err != nil {
		t.Fatal(err)
	}
	if pb != ref.PartyBound || rb != ref.ResourceBound {
		t.Fatalf("certificate (%v,%v) != (%v,%v)", pb, rb, ref.PartyBound, ref.ResourceBound)
	}
	safe := sess.Safe()
	for v, want := range maxminlp.Safe(in) {
		if safe[v] != want {
			t.Fatalf("session Safe[%d] = %v, want %v", v, safe[v], want)
		}
	}

	// Weight update: incremental result must equal a cold solve of the
	// mutated instance.
	deltas := []maxminlp.WeightDelta{
		{Kind: maxminlp.ResourceWeight, Row: 0, Agent: in.Resource(0)[0].Agent, Coeff: 3},
		{Kind: maxminlp.PartyWeight, Row: 2, Agent: in.Party(2)[0].Agent, Coeff: 0.5},
	}
	if err := sess.UpdateWeights(deltas); err != nil {
		t.Fatal(err)
	}
	inc, err := sess.LocalAverage(1)
	if err != nil {
		t.Fatal(err)
	}
	mut, err := in.UpdateCoeffs(
		[]maxminlp.CoeffUpdate{{Row: 0, Agent: deltas[0].Agent, Coeff: 3}},
		[]maxminlp.CoeffUpdate{{Row: 2, Agent: deltas[1].Agent, Coeff: 0.5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := maxminlp.LocalAverage(mut, maxminlp.NewGraph(mut, maxminlp.GraphOptions{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range cold.X {
		if inc.X[v] != cold.X[v] {
			t.Fatalf("incremental X[%d] = %v, want %v", v, inc.X[v], cold.X[v])
		}
	}
	if sess.Stats().IncrementalSolves != 1 {
		t.Errorf("stats = %+v, want one incremental solve", sess.Stats())
	}

	// Session-backed distributed run agrees with the session's own
	// averaging output.
	nw, err := maxminlp.NewSessionNetwork(sess)
	if err != nil {
		t.Fatal(err)
	}
	tr := runEngine(t, nw, "sequential", 0, maxminlp.AverageProtocol{Radius: 1})
	for v := range tr.X {
		if tr.X[v] != inc.X[v] {
			t.Fatalf("distributed X[%d] = %v, want %v", v, tr.X[v], inc.X[v])
		}
	}
}

// TestPublicAPITopology exercises the churn surface end to end through
// the facade: structural updates on an Instance and a Solver session,
// plus a resynced session network, all bit-identical to cold solves of
// the mutated instance.
func TestPublicAPITopology(t *testing.T) {
	in, _ := maxminlp.Torus([]int{6, 6}, maxminlp.LatticeOptions{})
	sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
	if _, err := sess.LocalAverage(1); err != nil {
		t.Fatal(err)
	}
	nw, err := maxminlp.NewSessionNetwork(sess)
	if err != nil {
		t.Fatal(err)
	}

	ops := []maxminlp.TopoUpdate{
		maxminlp.AddAgent(),
		maxminlp.AddResourceEdge(0, 36, 1.5),
		maxminlp.AddPartyEdge(2, 36, 0.75),
		maxminlp.RemoveAgent(7),
		maxminlp.RemoveResourceEdge(4, 10),
	}
	mirror, diff, err := in.ApplyTopo(ops)
	if err != nil {
		t.Fatal(err)
	}
	if diff.NumAgents != 37 || len(diff.AddedAgents) != 1 || len(diff.RemovedAgents) != 1 {
		t.Fatalf("diff = %+v", diff)
	}
	if _, err := sess.UpdateTopology(ops); err != nil {
		t.Fatal(err)
	}

	inc, err := sess.LocalAverage(1)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := maxminlp.LocalAverage(mirror, maxminlp.NewGraph(mirror, maxminlp.GraphOptions{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range cold.X {
		if inc.X[v] != cold.X[v] {
			t.Fatalf("post-churn X[%d] = %v, want %v", v, inc.X[v], cold.X[v])
		}
	}
	if inc.X[7] != 0 {
		t.Errorf("removed agent has activity %v, want 0", inc.X[7])
	}
	st := sess.Stats()
	if st.TopoUpdates != 1 || st.BallsPatched == 0 || st.BallIndexBuilds != 1 {
		t.Errorf("churn stats implausible: %+v", st)
	}

	// The session network serves the mutated topology after Resync.
	if err := nw.Resync(); err != nil {
		t.Fatal(err)
	}
	tr := runEngine(t, nw, "sequential", 0, maxminlp.AverageProtocol{Radius: 1})
	for v := range tr.X {
		if tr.X[v] != inc.X[v] {
			t.Fatalf("distributed post-churn X[%d] = %v, want %v", v, tr.X[v], inc.X[v])
		}
	}
}

// TestPublicAPIObservability exercises the metrics facade: registry
// construction, bundle attachment to sessions and networks, snapshot
// reads, Prometheus exposition, and the nil-registry disabled mode.
func TestPublicAPIObservability(t *testing.T) {
	in, _ := maxminlp.Torus([]int{6, 6}, maxminlp.LatticeOptions{})

	reg := maxminlp.NewMetricsRegistry()
	sm := maxminlp.NewSolveMetrics(reg)
	sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
	sess.SetObs(sm)
	if _, err := sess.LocalAverage(1); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.LocalAverage(1); err != nil { // warm hit
		t.Fatal(err)
	}
	if sm.FullSolves.Value() != 1 || sm.WarmHits.Value() != 1 {
		t.Fatalf("passes: full=%d warm=%d, want 1/1", sm.FullSolves.Value(), sm.WarmHits.Value())
	}
	var snap maxminlp.HistogramSnapshot = sm.PhaseLPSolve.Snapshot()
	if snap.Count == 0 || snap.P99 < snap.P50 {
		t.Fatalf("lp_solve snapshot implausible: %+v", snap)
	}
	if sm.LP.Solves.Value() == 0 {
		t.Fatal("no LP solves counted")
	}

	dm := maxminlp.NewDistMetrics(reg)
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	nw, err := maxminlp.NewNetwork(in, g)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetObs(dm)
	runEngine(t, nw, "sharded", 0, maxminlp.AverageProtocol{Radius: 1})
	if dm.Rounds.Value() == 0 || dm.Messages.Value() == 0 {
		t.Fatalf("dist metrics empty: rounds=%d messages=%d", dm.Rounds.Value(), dm.Messages.Value())
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"mmlp_solve_phase_seconds_bucket",
		"mmlp_solve_passes_total",
		"mmlp_lp_solves_total",
		"mmlp_dist_messages_total",
	} {
		if !strings.Contains(buf.String(), family) {
			t.Errorf("exposition missing %s", family)
		}
	}

	// Disabled mode: a nil registry hands out nil bundles whose methods
	// all no-op, so attaching one is the same as never instrumenting.
	var off *maxminlp.MetricsRegistry
	offSess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
	offSess.SetObs(maxminlp.NewSolveMetrics(off))
	want, err := sess.LocalAverage(1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := offSess.LocalAverage(1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.X {
		if want.X[v] != got.X[v] {
			t.Fatalf("instrumented and disabled sessions disagree at agent %d", v)
		}
	}
}
