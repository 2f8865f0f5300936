// Benchmarks regenerating every experiment of EXPERIMENTS.md (E1–E12) plus
// ablations for the design choices called out in DESIGN.md: pivot rules,
// float vs exact arithmetic, averaging radius, sequential vs parallel
// local-LP execution, and the distributed engines. Run with:
//
//	go test -bench=. -benchmem
package maxminlp_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"maxminlp"
	"maxminlp/internal/core"
	"maxminlp/internal/dist"
	"maxminlp/internal/gen"
	"maxminlp/internal/harness"
	"maxminlp/internal/lowerbound"
	"maxminlp/internal/lp"
)

// benchExperiment runs a full harness experiment once per iteration; the
// per-op time is the cost of regenerating the corresponding table.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for _, exp := range harness.All {
		if exp.ID != id {
			continue
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exp.Run(1); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("unknown experiment %s", id)
}

func BenchmarkE1LowerBoundConstruct(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2LowerBoundRatio(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3Safe(b *testing.B)                { benchExperiment(b, "E3") }
func BenchmarkE4Gamma(b *testing.B)               { benchExperiment(b, "E4") }
func BenchmarkE5LocalAverage(b *testing.B)        { benchExperiment(b, "E5") }
func BenchmarkE6SensorNet(b *testing.B)           { benchExperiment(b, "E6") }
func BenchmarkE7Scaling(b *testing.B)             { benchExperiment(b, "E7") }
func BenchmarkE8Distributed(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkE9SelfStabilization(b *testing.B)   { benchExperiment(b, "E9") }
func BenchmarkE10OpenQuestion(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11AdaptiveScheme(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12ShardedEngine(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkE13DedupProfile(b *testing.B)       { benchExperiment(b, "E13") }

// --- ablations -----------------------------------------------------------

// BenchmarkLPPivotRules ablates the entering-variable rule of the float64
// simplex on the torus max-min LP.
func BenchmarkLPPivotRules(b *testing.B) {
	in, _ := gen.Torus([]int{10, 10}, gen.LatticeOptions{})
	for _, rule := range []struct {
		name string
		rule lp.PivotRule
	}{
		{"DantzigThenBland", lp.DantzigThenBland},
		{"BlandOnly", lp.BlandOnly},
	} {
		b.Run(rule.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := torusProblem(in)
				if _, err := lp.SolveWithRule(p, rule.rule); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func torusProblem(in *maxminlp.Instance) *lp.Problem {
	n := in.NumAgents()
	obj := make([]float64, n+1)
	obj[n] = 1
	var cons []lp.Constraint
	for i := 0; i < in.NumResources(); i++ {
		row := make([]float64, n+1)
		for _, e := range in.Resource(i) {
			row[e.Agent] = e.Coeff
		}
		cons = append(cons, lp.Constraint{Coeffs: row, Rel: lp.LE, RHS: 1})
	}
	for k := 0; k < in.NumParties(); k++ {
		row := make([]float64, n+1)
		for _, e := range in.Party(k) {
			row[e.Agent] = -e.Coeff
		}
		row[n] = 1
		cons = append(cons, lp.Constraint{Coeffs: row, Rel: lp.LE, RHS: 0})
	}
	return &lp.Problem{Obj: obj, Constraints: cons}
}

// BenchmarkLPFloatVsRat measures the cost of exact rational arithmetic
// relative to float64 on identical small max-min LPs.
func BenchmarkLPFloatVsRat(b *testing.B) {
	in, _ := gen.Cycle(12, gen.LatticeOptions{})
	b.Run("float64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lp.SolveMaxMin(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bigRat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lp.SolveMaxMinRat(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLocalAverageRadius shows how the Theorem-3 algorithm's cost
// grows with the radius R (per agent, the ball and local LP grow
// polynomially on a torus). The torus is 16×16 so that radius-2 balls
// (lattice diameter 9) do not wrap around the side: on a non-wrapping
// symmetric instance most agents share an orbit and the isomorphic-ball
// dedup collapses their local LPs to one solve per class. (On the 8×8
// torus this benchmark historically used, every radius-2 ball wraps, no
// two agents assemble identical LPs, and only the workspace gains show.)
func BenchmarkLocalAverageRadius(b *testing.B) {
	in, _ := gen.Torus([]int{16, 16}, gen.LatticeOptions{})
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	for _, radius := range []int{0, 1, 2} {
		b.Run(radiusName(radius), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.LocalAverage(in, g, radius); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func radiusName(r int) string { return "R=" + strconv.Itoa(r) }

// BenchmarkLocalAverageDedup ablates the isomorphic-ball LP cache on the
// BenchmarkLocalAverageRadius workload: identical outputs, one simplex
// run per orbit class instead of one per agent.
func BenchmarkLocalAverageDedup(b *testing.B) {
	in, _ := gen.Torus([]int{16, 16}, gen.LatticeOptions{})
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	for _, cfg := range []struct {
		name string
		opt  maxminlp.AverageOptions
	}{
		{"dedup", maxminlp.AverageOptions{}},
		{"reference", maxminlp.AverageOptions{NoDedup: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			solves, avoided := 0, 0
			for i := 0; i < b.N; i++ {
				res, err := maxminlp.LocalAverageOpt(in, g, 2, cfg.opt)
				if err != nil {
					b.Fatal(err)
				}
				solves, avoided = res.LocalLPs, res.SolvesAvoided
			}
			b.ReportMetric(float64(solves), "solves/op")
			b.ReportMetric(float64(avoided), "avoided/op")
		})
	}
}

// BenchmarkLocalAveragePresolve ablates presolved-form dedup keys on a
// unit-weight grid at radius 1, where boundary balls that differ only in
// rows presolve proves redundant collapse into one orbit class: the
// presolve rows trade a small per-ball reduction cost for strictly fewer
// simplex runs (higher avoided/op) than raw-form keys on the same input.
func BenchmarkLocalAveragePresolve(b *testing.B) {
	in, _ := gen.Grid([]int{16, 16}, gen.LatticeOptions{})
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	for _, cfg := range []struct {
		name string
		opt  maxminlp.AverageOptions
	}{
		{"presolve", maxminlp.AverageOptions{Presolve: true}},
		{"raw", maxminlp.AverageOptions{}},
		{"reference", maxminlp.AverageOptions{NoDedup: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			solves, avoided := 0, 0
			for i := 0; i < b.N; i++ {
				res, err := maxminlp.LocalAverageOpt(in, g, 1, cfg.opt)
				if err != nil {
					b.Fatal(err)
				}
				solves, avoided = res.LocalLPs, res.SolvesAvoided
			}
			b.ReportMetric(float64(solves), "solves/op")
			b.ReportMetric(float64(avoided), "avoided/op")
		})
	}
}

// BenchmarkEngines runs every engine on the same protocol.
func BenchmarkEngines(b *testing.B) {
	in, _ := gen.Torus([]int{8, 8}, gen.LatticeOptions{})
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	nw, err := dist.NewNetwork(in, g)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range dist.Engines() {
		benchEngine(b, name, name, dist.Options{}, nw, dist.AverageProtocol{Radius: 1})
	}
}

// benchEngine runs p on nw under the named engine as sub-benchmark sub.
func benchEngine(b *testing.B, sub, name string, opt dist.Options, nw *dist.Network, p dist.Protocol) {
	eng, err := dist.New(name, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(sub, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(nw, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSafePerAgent isolates the per-agent cost of the safe
// algorithm, the cheapest possible local algorithm.
func BenchmarkSafePerAgent(b *testing.B) {
	in, _ := gen.Torus([]int{32, 32}, gen.LatticeOptions{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.Safe(in)
	}
}

// BenchmarkBallAndGamma measures the neighbourhood primitives used by
// both Theorem 3 and the γ(r) profiler.
func BenchmarkBallAndGamma(b *testing.B) {
	in, _ := gen.Torus([]int{24, 24}, gen.LatticeOptions{})
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	b.Run("ball-r3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Ball(i%in.NumAgents(), 3)
		}
	})
	b.Run("gamma-profile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.GammaProfile(4)
		}
	})
}

// BenchmarkBallLarge measures radius-3 ball extraction on a large torus
// (n = 4096), the primitive whose cost the CSR layout targets.
func BenchmarkBallLarge(b *testing.B) {
	in, _ := gen.Torus([]int{64, 64}, gen.LatticeOptions{})
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Ball(i%in.NumAgents(), 3)
	}
}

// BenchmarkBallGeometric is BenchmarkBallLarge on a unit-disk instance,
// the irregular-degree workload of Section 5.
func BenchmarkBallGeometric(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	in, _ := gen.UnitDisk(gen.UnitDiskOptions{Nodes: 2000, Radius: 0.04, MaxNeighbors: 6}, rng)
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Ball(i%in.NumAgents(), 3)
	}
}

// BenchmarkGammaLarge measures the full γ(r) profile (one bounded BFS per
// vertex) on a large torus.
func BenchmarkGammaLarge(b *testing.B) {
	in, _ := gen.Torus([]int{48, 48}, gen.LatticeOptions{})
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.GammaProfile(3)
	}
}

// BenchmarkCertificateLarge measures the Theorem-3 certificate (balls +
// per-resource unions + per-party intersections, no LP solves) on a large
// torus: the round-loop structure the flat index accelerates.
func BenchmarkCertificateLarge(b *testing.B) {
	in, _ := gen.Torus([]int{32, 32}, gen.LatticeOptions{})
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Certificate(in, g, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginesLarge compares the distributed engines on a torus large
// enough for sharding to matter (n = 1024, horizon 3).
func BenchmarkEnginesLarge(b *testing.B) {
	in, _ := gen.Torus([]int{32, 32}, gen.LatticeOptions{})
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	nw, err := dist.NewNetwork(in, g)
	if err != nil {
		b.Fatal(err)
	}
	proto := dist.AverageProtocol{Radius: 1}
	benchEngine(b, "sequential", "sequential", dist.Options{}, nw, proto)
	for _, shards := range []int{1, 2, 4, 8} {
		benchEngine(b, fmt.Sprintf("sharded-P=%d", shards), "sharded", dist.Options{Shards: shards}, nw, proto)
	}
}

// BenchmarkBallIndex measures building the all-agents radius-2 ball
// arena — the once-per-run precomputation of the flat round loops —
// sequentially and sharded.
func BenchmarkBallIndex(b *testing.B) {
	in, _ := gen.Torus([]int{64, 64}, gen.LatticeOptions{})
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g.BallIndex(2, workers).NumVertices() != in.NumAgents() {
					b.Fatal("bad index")
				}
			}
		})
	}
}

// BenchmarkSafeFlat ablates the flat-index safe algorithm against the
// instance-walking reference on the BenchmarkSafePerAgent workload.
func BenchmarkSafeFlat(b *testing.B) {
	in, _ := gen.Torus([]int{32, 32}, gen.LatticeOptions{})
	csr := maxminlp.NewCSR(in)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		maxminlp.SafeFlat(csr)
	}
}

// BenchmarkLowerBoundBuild isolates the construction cost of S (template
// generation plus hypertree assembly) for the largest E1 case.
func BenchmarkLowerBoundBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := lowerbound.Build(lowerbound.Params{
			DeltaVI: 3, DeltaVK: 3, R: 2, LocalHorizon: 1,
			Rng: rand.New(rand.NewSource(1)),
		})
		if err != nil {
			b.Fatal(err)
		}
		if c.S.NumAgents() == 0 {
			b.Fatal("empty instance")
		}
	}
}

// BenchmarkLocalAverageParallel ablates the goroutine-pool parallel
// executor of the local-LP phase against the sequential reference.
func BenchmarkLocalAverageParallel(b *testing.B) {
	in, _ := gen.Torus([]int{12, 12}, gen.LatticeOptions{})
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.LocalAverageParallel(in, g, 1, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE14SessionProfile(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkSession measures the session layer on the 16×16 torus at
// R=2 (the BenchmarkLocalAverageRadius workload): a cold call builds
// every structure and solves all agents; a warm repeat is served from
// retained state; an incremental call follows a 4-coefficient weight
// update and re-solves only the invalidated ball-local LPs. The
// resolved/op metric counts agents the incremental pass re-examined;
// rebuilds/op must stay 0 on the warm and incremental paths.
func BenchmarkSession(b *testing.B) {
	in, _ := gen.Torus([]int{16, 16}, gen.LatticeOptions{})
	const radius = 2
	deltas := []maxminlp.WeightDelta{
		{Kind: maxminlp.ResourceWeight, Row: 0, Agent: in.Resource(0)[0].Agent, Coeff: 1.5},
		{Kind: maxminlp.ResourceWeight, Row: 17, Agent: in.Resource(17)[0].Agent, Coeff: 0.75},
		{Kind: maxminlp.PartyWeight, Row: 5, Agent: in.Party(5)[0].Agent, Coeff: 2.0},
		{Kind: maxminlp.PartyWeight, Row: 100, Agent: in.Party(100)[0].Agent, Coeff: 0.5},
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
			if _, err := sess.LocalAverage(radius); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
		if _, err := sess.LocalAverage(radius); err != nil {
			b.Fatal(err)
		}
		builds := sess.Stats().BallIndexBuilds
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.LocalAverage(radius); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(sess.Stats().BallIndexBuilds-builds), "rebuilds/op")
	})
	b.Run("incremental", func(b *testing.B) {
		sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
		if _, err := sess.LocalAverage(radius); err != nil {
			b.Fatal(err)
		}
		builds := sess.Stats().BallIndexBuilds
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternate the coefficients so every iteration really
			// changes the weights (and the first restores them).
			ds := make([]maxminlp.WeightDelta, len(deltas))
			copy(ds, deltas)
			if i%2 == 1 {
				for j := range ds {
					ds[j].Coeff *= 2
				}
			}
			if err := sess.UpdateWeights(ds); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.LocalAverage(radius); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := sess.Stats()
		b.ReportMetric(float64(st.AgentsResolved)/float64(b.N), "resolved/op")
		b.ReportMetric(float64(st.BallIndexBuilds-builds), "rebuilds/op")
	})
}

// BenchmarkSessionObs is BenchmarkSession with a metrics registry
// attached: the instrumented twin that the CI overhead gate compares
// against the plain runs (obs-on must stay within 2% of obs-off), and
// the source of the obs-derived phase latency distributions (p50/p99
// per solve phase, in ns) that the bench-smoke record carries alongside
// the per-op means.
func BenchmarkSessionObs(b *testing.B) {
	in, _ := gen.Torus([]int{16, 16}, gen.LatticeOptions{})
	const radius = 2
	deltas := []maxminlp.WeightDelta{
		{Kind: maxminlp.ResourceWeight, Row: 0, Agent: in.Resource(0)[0].Agent, Coeff: 1.5},
		{Kind: maxminlp.ResourceWeight, Row: 17, Agent: in.Resource(17)[0].Agent, Coeff: 0.75},
		{Kind: maxminlp.PartyWeight, Row: 5, Agent: in.Party(5)[0].Agent, Coeff: 2.0},
		{Kind: maxminlp.PartyWeight, Row: 100, Agent: in.Party(100)[0].Agent, Coeff: 0.5},
	}
	reportPhases := func(b *testing.B, m *maxminlp.SolveMetrics) {
		for _, ph := range []struct {
			name string
			s    maxminlp.HistogramSnapshot
		}{
			{"fingerprint", m.PhaseFingerprint.Snapshot()},
			{"group", m.PhaseGroup.Snapshot()},
			{"lp-solve", m.PhaseLPSolve.Snapshot()},
			{"accumulate", m.PhaseAccumulate.Snapshot()},
		} {
			b.ReportMetric(ph.s.P50*1e9, ph.name+"-p50-ns")
			b.ReportMetric(ph.s.P99*1e9, ph.name+"-p99-ns")
		}
	}
	b.Run("cold", func(b *testing.B) {
		reg := maxminlp.NewMetricsRegistry()
		m := maxminlp.NewSolveMetrics(reg)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
			sess.SetObs(m)
			if _, err := sess.LocalAverage(radius); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportPhases(b, m)
	})
	b.Run("warm", func(b *testing.B) {
		reg := maxminlp.NewMetricsRegistry()
		m := maxminlp.NewSolveMetrics(reg)
		sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
		sess.SetObs(m)
		if _, err := sess.LocalAverage(radius); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.LocalAverage(radius); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if m.WarmHits.Value() < int64(b.N) {
			b.Fatalf("warm hits %d < %d iterations", m.WarmHits.Value(), b.N)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		reg := maxminlp.NewMetricsRegistry()
		m := maxminlp.NewSolveMetrics(reg)
		sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
		sess.SetObs(m)
		if _, err := sess.LocalAverage(radius); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds := make([]maxminlp.WeightDelta, len(deltas))
			copy(ds, deltas)
			if i%2 == 1 {
				for j := range ds {
					ds[j].Coeff *= 2
				}
			}
			if err := sess.UpdateWeights(ds); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.LocalAverage(radius); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportPhases(b, m)
		b.ReportMetric(m.WeightUpdateSeconds.Snapshot().P99*1e9, "update-p99-ns")
	})
}

// BenchmarkSessionNetwork compares a plain network against a
// session-backed one (shared ball index + LP cache across nodes) on the
// sequential engine — the per-node redundant re-solves of the protocol
// collapse to one simplex run per distinct LP across the whole network.
func BenchmarkSessionNetwork(b *testing.B) {
	in, _ := gen.Torus([]int{10, 10}, gen.LatticeOptions{})
	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	proto := dist.AverageProtocol{Radius: 1}
	plain, err := dist.NewNetwork(in, g)
	if err != nil {
		b.Fatal(err)
	}
	benchEngine(b, "plain", "sequential", dist.Options{}, plain, proto)
	sess, err := dist.NewSessionNetwork(core.NewSolverFromGraph(in, g))
	if err != nil {
		b.Fatal(err)
	}
	benchEngine(b, "session", "sequential", dist.Options{}, sess, proto)
}

// BenchmarkE15ChurnProfile regenerates the EXPERIMENTS.md churn table.
func BenchmarkE15ChurnProfile(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkParallelScaling is the work-stealing runtime's P∈{1,2,4,8}
// scaling matrix (EXPERIMENTS.md E17):
//
//   - uniform: cold dedup solve of a random-weight 24×24 torus at R=1 —
//     every fingerprint is distinct, so all 576 local LPs really solve,
//     with near-uniform per-ball cost.
//   - skewed: the same instance plus one hub resource tying 8 spread
//     agents into a clique, so a handful of balls (the hub members and
//     their neighbourhoods) cost far more than the median — the
//     distribution static sharding loses on.
//   - churn: a warm Solver session on the skewed instance; each op
//     patches the hub row plus a few scattered resources with fresh
//     coefficients and re-solves incrementally — the small, heavily
//     skewed dirty sets of a deployment under diurnal churn, the hot
//     path the scheduler exists for.
//
// The numbers are only meaningful against the _meta host fingerprint:
// on a single-core host the matrix is flat by construction. CI gates
// churn/P=4 ≥ 1.6× churn/P=1 on multi-core runners.
func BenchmarkParallelScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	base, _ := gen.Torus([]int{24, 24}, gen.LatticeOptions{RandomWeights: true, Rng: rng})
	const radius = 1
	// Hub clique: one new resource row over 8 agents spread across the
	// torus (577 is coprime to 576, so the stride visits distinct
	// agents far apart in index order).
	hubRow := base.NumResources()
	hubAgents := make([]int, 8)
	ups := make([]maxminlp.TopoUpdate, len(hubAgents))
	for k := range hubAgents {
		hubAgents[k] = (k * 577) % base.NumAgents()
		ups[k] = maxminlp.AddResourceEdge(hubRow, hubAgents[k], 1)
	}
	skewed, _, err := base.ApplyTopo(ups)
	if err != nil {
		b.Fatal(err)
	}
	gBase := maxminlp.NewGraph(base, maxminlp.GraphOptions{})
	gSkew := maxminlp.NewGraph(skewed, maxminlp.GraphOptions{})
	// Scattered light touches for the churn deltas: a few torus resource
	// rows far from each other, patched alongside the hub row.
	scatterRows := []int{3, 57, 111, 203, 309, 411}

	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("uniform/P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := maxminlp.LocalAverageOpt(base, gBase, radius, maxminlp.AverageOptions{Workers: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("skewed/P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := maxminlp.LocalAverageOpt(skewed, gSkew, radius, maxminlp.AverageOptions{Workers: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("churn/P=%d", p), func(b *testing.B) {
			sess := maxminlp.NewSolver(skewed, maxminlp.GraphOptions{})
			sess.SetWorkers(p)
			if _, err := sess.LocalAverage(radius); err != nil {
				b.Fatal(err)
			}
			warm := sess.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fresh coefficients every iteration: the touched balls'
				// fingerprints really change, so each op re-solves them
				// instead of hitting the cache.
				coeff := 1 + float64(i%4096+1)*1e-4
				ds := []maxminlp.WeightDelta{
					{Kind: maxminlp.ResourceWeight, Row: hubRow, Agent: hubAgents[0], Coeff: coeff},
				}
				for _, row := range scatterRows {
					ds = append(ds, maxminlp.WeightDelta{
						Kind: maxminlp.ResourceWeight, Row: row,
						Agent: skewed.Resource(row)[0].Agent, Coeff: 2 - coeff,
					})
				}
				if err := sess.UpdateWeights(ds); err != nil {
					b.Fatal(err)
				}
				if _, err := sess.LocalAverage(radius); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := sess.Stats()
			b.ReportMetric(float64(st.AgentsResolved-warm.AgentsResolved)/float64(b.N), "resolved/op")
		})
	}
}

// BenchmarkSessionTopology measures live topology churn on the 16×16
// torus at R=2 (the BenchmarkSession workload): each op toggles one
// support entry — an agent leaving, then rejoining, resource 0. cold
// pays a full rebuild per mutation (fresh session: graph, CSR, ball
// index, every local LP); incremental patches the warm session and
// re-solves only the invalidated balls. rebuilds/op must stay 0 on the
// incremental path and invalidated-balls/op is the patch footprint —
// the acceptance numbers of the structural-update layer.
func BenchmarkSessionTopology(b *testing.B) {
	in, _ := gen.Torus([]int{16, 16}, gen.LatticeOptions{})
	const radius = 2
	agent := in.Resource(0)[0].Agent
	toggle := func(i int) []maxminlp.TopoUpdate {
		if i%2 == 0 {
			return []maxminlp.TopoUpdate{maxminlp.RemoveResourceEdge(0, agent)}
		}
		return []maxminlp.TopoUpdate{maxminlp.AddResourceEdge(0, agent, 1)}
	}
	b.Run("cold", func(b *testing.B) {
		cur := in
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			cur, _, err = cur.ApplyTopo(toggle(i))
			if err != nil {
				b.Fatal(err)
			}
			sess := maxminlp.NewSolver(cur, maxminlp.GraphOptions{})
			if _, err := sess.LocalAverage(radius); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
		if _, err := sess.LocalAverage(radius); err != nil {
			b.Fatal(err)
		}
		warm := sess.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.UpdateTopology(toggle(i)); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.LocalAverage(radius); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := sess.Stats()
		b.ReportMetric(float64(st.CSRBuilds+st.BallIndexBuilds-warm.CSRBuilds-warm.BallIndexBuilds)/float64(b.N), "rebuilds/op")
		b.ReportMetric(float64(st.BallsPatched-warm.BallsPatched)/float64(b.N), "invalidated-balls/op")
		b.ReportMetric(float64(st.AgentsResolved-warm.AgentsResolved)/float64(b.N), "resolved/op")
	})
}

// BenchmarkSessionTopologyScale measures UpdateTopology alone as the
// instance grows: unit tori of 24×24 and 96×96 agents at R=1 and R=2,
// each op toggling one support entry of resource 0 on a session that has
// solved the radius (the re-solve between ops runs with the timer
// stopped). structural-rows/op counts the certificate rows a patch
// re-derives; it depends only on the toggled edge's neighbourhood, so CI
// requires it to be no larger at 96×96 than at 24×24. us/op still grows
// with n: the patched instance, CSR, graph and ball-index arena are
// copied whole.
func BenchmarkSessionTopologyScale(b *testing.B) {
	for _, side := range []int{24, 96} {
		in, _ := gen.Torus([]int{side, side}, gen.LatticeOptions{})
		agent := in.Resource(0)[0].Agent
		for _, radius := range []int{1, 2} {
			b.Run(fmt.Sprintf("%dx%d/R=%d", side, side, radius), func(b *testing.B) {
				sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
				if _, err := sess.LocalAverage(radius); err != nil {
					b.Fatal(err)
				}
				warm := sess.Stats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op := maxminlp.RemoveResourceEdge(0, agent)
					if i%2 == 1 {
						op = maxminlp.AddResourceEdge(0, agent, 1)
					}
					if _, err := sess.UpdateTopology([]maxminlp.TopoUpdate{op}); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if _, err := sess.LocalAverage(radius); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/op")
				b.ReportMetric(float64(sess.Stats().StructuralRows-warm.StructuralRows)/float64(b.N), "structural-rows/op")
			})
		}
	}
}
