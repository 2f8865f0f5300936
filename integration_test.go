package maxminlp_test

import (
	"math"
	"math/rand"
	"testing"

	"maxminlp"
	"maxminlp/internal/lp"
)

// TestIntegrationSensorNetworkPipeline runs the full §2 story through the
// public API: generate a deployment, derive the max-min LP, solve it
// centrally, run both local algorithms centrally and as message-passing
// protocols, and check every cross-cutting guarantee at once.
func TestIntegrationSensorNetworkPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sn := maxminlp.RandomSensorNetwork(maxminlp.SensorNetworkOptions{
		Sensors: 25, Relays: 7, Areas: 9,
		RadioRange: 0.32, SenseRange: 0.28, MaxLinksPerSensor: 3,
	}, rng)
	in, err := sn.Instance()
	if err != nil {
		t.Fatal(err)
	}
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})

	// Ground truth: the float simplex against the exact rational one.
	dense, err := maxminlp.SolveOptimal(in)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := lp.SolveMaxMinRat(in)
	if err != nil {
		t.Fatal(err)
	}
	if omega, _ := exact.Omega.Float64(); math.Abs(dense.Omega-omega) > 1e-6*(1+omega) {
		t.Fatalf("float ω %v disagrees with exact ω %v", dense.Omega, omega)
	}

	// Local algorithms: feasible and certified.
	safe := maxminlp.Safe(in)
	if v := in.Violation(safe); v > 1e-9 {
		t.Fatalf("safe infeasible: %v", v)
	}
	avg, err := maxminlp.LocalAverage(in, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v := in.Violation(avg.X); v > 1e-9 {
		t.Fatalf("average infeasible: %v", v)
	}
	ratio := dense.Omega / in.Objective(avg.X)
	if ratio > avg.RatioCertificate()+1e-6 {
		t.Fatalf("ratio %v exceeds certificate %v", ratio, avg.RatioCertificate())
	}

	// Parallel executor agrees bit-for-bit.
	par, err := maxminlp.LocalAverageParallel(in, g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := range avg.X {
		if par.X[v] != avg.X[v] {
			t.Fatalf("parallel executor diverged at agent %d", v)
		}
	}

	// Distributed execution agrees bit-for-bit with the centralised run.
	nw, err := maxminlp.NewNetwork(in, g)
	if err != nil {
		t.Fatal(err)
	}
	avg1, err := maxminlp.LocalAverage(in, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := runEngine(t, nw, "sharded", 0, maxminlp.AverageProtocol{Radius: 1})
	for v := range avg1.X {
		if tr.X[v] != avg1.X[v] {
			t.Fatalf("distributed run diverged at agent %d", v)
		}
	}
	if tr.Payload == 0 || tr.MaxNodePayload == 0 {
		t.Fatal("payload accounting missing")
	}
}

// TestIntegrationAdaptiveOnGeometric drives the adaptive scheme on a
// unit-disk deployment: geometric graphs have polynomial growth, so a
// moderate target must be reachable, and the resulting solution must be
// feasible with the certificate honoured.
func TestIntegrationAdaptiveOnGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	in := maxminlp.RandomInstance(maxminlp.RandomOptions{
		Agents: 60, Resources: 60, Parties: 30, MaxVI: 3, MaxVK: 3,
	}, rng)
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	res, err := maxminlp.AdaptiveAverage(in, g, 4.0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if v := in.Violation(res.X); v > 1e-9 {
		t.Fatalf("adaptive solution infeasible: %v", v)
	}
	opt, err := maxminlp.SolveOptimal(in)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Omega > 1e-9 {
		ratio := opt.Omega / in.Objective(res.X)
		if ratio > res.RatioCertificate()+1e-6 {
			t.Fatalf("ratio %v above certificate %v", ratio, res.RatioCertificate())
		}
	}
	pb, rb, err := maxminlp.Certificate(in, g, res.Radius)
	if err != nil {
		t.Fatal(err)
	}
	if pb*rb != res.RatioCertificate() {
		t.Fatalf("certificate mismatch: %v vs %v", pb*rb, res.RatioCertificate())
	}
}

// TestIntegrationLowerBoundAgainstAveraging closes the loop between the
// two halves of the paper: derive S' adversarially from the averaging
// algorithm's own output on S, verify the construction, and confirm the
// optimal-versus-achieved gap on S' is real.
func TestIntegrationLowerBoundAgainstAveraging(t *testing.T) {
	c, err := maxminlp.BuildLowerBound(maxminlp.LowerBoundParams{
		DeltaVI: 3, DeltaVK: 2, R: 2, LocalHorizon: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := maxminlp.NewGraph(c.S, maxminlp.GraphOptions{})
	avg, err := maxminlp.LocalAverage(c.S, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := c.DeriveSPrime(avg.X)
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Check(avg.X, sp)
	if !rep.OK() {
		t.Fatalf("construction checks failed: %v", rep.Errors)
	}
	sub := sp.Instance()
	opt, err := maxminlp.SolveOptimal(sub)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Omega < 1-1e-9 {
		t.Fatalf("ω*(S') = %v < 1 contradicts the witness", opt.Omega)
	}
	// The safe algorithm (horizon ≤ r) must be at least the corollary
	// bound away from optimal on S'.
	achieved := sub.Objective(maxminlp.Safe(sub))
	if ratio := opt.Omega / achieved; ratio < 1.5-1e-6 {
		t.Fatalf("safe ratio on S' = %v below the Corollary-2 bound 1.5", ratio)
	}
}
