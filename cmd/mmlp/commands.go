package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"maxminlp/internal/apps"
	"maxminlp/internal/core"
	"maxminlp/internal/dist"
	"maxminlp/internal/gen"
	"maxminlp/internal/hypergraph"
	"maxminlp/internal/lowerbound"
	"maxminlp/internal/lp"
	"maxminlp/internal/mmlp"
)

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	kind := fs.String("kind", "torus", "torus | grid | random | sensornet | isp | safetight")
	dims := fs.String("dims", "16x16", "lattice dimensions for torus/grid, e.g. 64 or 16x16")
	seed := fs.Int64("seed", 1, "random seed")
	agents := fs.Int("agents", 50, "agents for -kind random")
	weights := fs.Bool("weights", false, "random coefficients instead of unit ones")
	deltaVI := fs.Int("dvi", 3, "ΔVI for random/safetight")
	deltaVK := fs.Int("dvk", 3, "ΔVK for random")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	var in *mmlp.Instance
	switch *kind {
	case "torus", "grid":
		d, err := parseDims(*dims)
		if err != nil {
			return err
		}
		opt := gen.LatticeOptions{RandomWeights: *weights, Rng: rng}
		if *kind == "torus" {
			in, _ = gen.Torus(d, opt)
		} else {
			in, _ = gen.Grid(d, opt)
		}
	case "random":
		in = gen.Random(gen.RandomOptions{
			Agents: *agents, Resources: *agents, Parties: *agents / 2,
			MaxVI: *deltaVI, MaxVK: *deltaVK, UnitCoefficients: !*weights,
		}, rng)
	case "safetight":
		in = gen.SafeTight(*deltaVI, 4)
	case "sensornet":
		sn := apps.RandomSensorNetwork(apps.SensorNetworkOptions{
			Sensors: *agents, Relays: max(*agents/4, 1), Areas: max(*agents/3, 1),
			RadioRange: 0.3, SenseRange: 0.25, MaxLinksPerSensor: 3,
		}, rng)
		var err error
		if in, err = sn.Instance(); err != nil {
			return err
		}
	case "isp":
		net := apps.RandomISP(apps.ISPOptions{
			Customers: max(*agents/4, 1), LastMilesPerCustomer: 2,
			Routers: max(*agents/8, 1), RoutersPerLastMile: 2,
		}, rng)
		var err error
		if in, err = net.Instance(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	return in.WriteText(os.Stdout)
}

func cmdStats(args []string) error {
	in, err := readInstance(args)
	if err != nil {
		return err
	}
	fmt.Println(in.Stats())
	g := hypergraph.FromInstance(in, hypergraph.Options{})
	fmt.Printf("hypergraph: max degree %d, diameter %d, components %d\n",
		g.MaxDegree(), g.Diameter(), len(g.Components()))
	csr := g.CSR()
	fmt.Printf("csr index: incidence %d nonzeros (%d bytes), adjacency %d edges\n",
		csr.Nonzeros(), csr.MemoryBytes(), g.NumEdges())
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	proto := fs.String("proto", "average", "safe | average")
	radius := fs.Int("radius", 1, "averaging radius R for -proto average")
	engine := fs.String("engine", "sequential", strings.Join(dist.Engines(), " | "))
	shards := fs.Int("shards", 0, "workers for -engine sharded, members for -engine partitioned; ≤ 0 selects GOMAXPROCS")
	printX := fs.Bool("x", false, "print the full activity vector")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	in, err := readInstance(fs.Args())
	if err != nil {
		return err
	}
	g := hypergraph.FromInstance(in, hypergraph.Options{})
	nw, err := dist.NewNetwork(in, g)
	if err != nil {
		return err
	}
	var p dist.Protocol
	switch *proto {
	case "safe":
		p = dist.SafeProtocol{}
	case "average":
		p = dist.AverageProtocol{Radius: *radius}
	default:
		return fmt.Errorf("unknown protocol %q", *proto)
	}
	eng, err := dist.New(*engine, dist.Options{Shards: *shards})
	if err != nil {
		return err
	}
	tr, err := eng.Run(nw, p)
	if err != nil {
		return err
	}
	if v := in.Violation(tr.X); v > 1e-9 {
		return fmt.Errorf("internal error: solution violates constraints by %g", v)
	}
	fmt.Printf("%s on %s: rounds %d, messages %d, payload %d, max/node %d, ω = %.6g\n",
		tr.Protocol, *engine, tr.Rounds, tr.Messages, tr.Payload, tr.MaxNodePayload,
		in.Objective(tr.X))
	if *printX {
		for v, xv := range tr.X {
			fmt.Printf("x[%d] = %.6g\n", v, xv)
		}
	}
	return nil
}

func cmdSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	alg := fs.String("alg", "optimal", "optimal | safe | average | adaptive")
	radius := fs.Int("radius", 1, "radius R for -alg average")
	target := fs.Float64("target", 2, "target ratio for -alg adaptive")
	noDedup := fs.Bool("nodedup", false, "disable isomorphic-ball LP dedup for -alg average/adaptive (reference path; same outputs)")
	presolve := fs.Bool("presolve", false, "reduce ball LPs before dedup fingerprinting for -alg average/adaptive (value-exact; more dedup hits on boundary-heavy instances)")
	printX := fs.Bool("x", false, "print the full activity vector")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	in, err := readInstance(fs.Args())
	if err != nil {
		return err
	}
	var x []float64
	switch *alg {
	case "optimal":
		res, err := lp.SolveMaxMin(in)
		if err != nil {
			return err
		}
		x = res.X
		fmt.Printf("optimal ω = %.6g (%d pivots)\n", res.Omega, res.Pivots)
	case "safe":
		x = core.Safe(in)
		fmt.Printf("safe ω = %.6g (proven ratio ≤ ΔVI = %d)\n", in.Objective(x), in.Degrees().MaxVI)
	case "average":
		g := hypergraph.FromInstance(in, hypergraph.Options{})
		res, err := core.LocalAverageOpt(in, g, *radius, core.AverageOptions{NoDedup: *noDedup, Presolve: *presolve})
		if err != nil {
			return err
		}
		x = res.X
		fmt.Printf("average R=%d ω = %.6g (certificate %.4g, %d local LPs solved, %d dedup-avoided)\n",
			*radius, in.Objective(x), res.RatioCertificate(), res.LocalLPs, res.SolvesAvoided)
	case "adaptive":
		g := hypergraph.FromInstance(in, hypergraph.Options{})
		res, err := core.AdaptiveAverageOpt(in, g, *target, 8, core.AverageOptions{NoDedup: *noDedup, Presolve: *presolve})
		if err != nil {
			return err
		}
		x = res.X
		fmt.Printf("adaptive target %.4g: achieved=%v at R=%d ω = %.6g (certificate %.4g, %d local LPs solved, %d dedup-avoided)\n",
			*target, res.Achieved, res.Radius, in.Objective(x), res.RatioCertificate(), res.LocalLPs, res.SolvesAvoided)
	default:
		return fmt.Errorf("unknown algorithm %q", *alg)
	}
	if v := in.Violation(x); v > 1e-9 {
		return fmt.Errorf("internal error: solution violates constraints by %g", v)
	}
	if *printX {
		for v, xv := range x {
			fmt.Printf("x[%d] = %.6g\n", v, xv)
		}
	}
	return nil
}

func cmdGamma(args []string) error {
	fs := flag.NewFlagSet("gamma", flag.ContinueOnError)
	maxR := fs.Int("maxr", 6, "largest radius to report")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	in, err := readInstance(fs.Args())
	if err != nil {
		return err
	}
	g := hypergraph.FromInstance(in, hypergraph.Options{})
	prof := g.GammaProfile(*maxR)
	for r, val := range prof {
		fmt.Printf("γ(%d) = %.6g\n", r, val)
	}
	fmt.Printf("Theorem 3 ratio bound γ(R−1)·γ(R) at R=%d: %.6g\n", *maxR, prof[*maxR-1]*prof[*maxR])
	return nil
}

func cmdLowerBound(args []string) error {
	fs := flag.NewFlagSet("lowerbound", flag.ContinueOnError)
	deltaVI := fs.Int("dvi", 3, "ΔVI ≥ 2")
	deltaVK := fs.Int("dvk", 2, "ΔVK ≥ 2")
	bigR := fs.Int("R", 2, "hypertree parameter R > r")
	horizon := fs.Int("r", 1, "local horizon r being fooled")
	seed := fs.Int64("seed", 1, "seed for random template generation")
	render := fs.Bool("render", false, "print the Figure-1 sketch of the construction")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	params := lowerbound.Params{
		DeltaVI: *deltaVI, DeltaVK: *deltaVK, R: *bigR, LocalHorizon: *horizon,
		Rng: rand.New(rand.NewSource(*seed)),
	}
	c, err := lowerbound.Build(params)
	if err != nil {
		return err
	}
	x := core.Safe(c.S)
	sp, err := c.DeriveSPrime(x)
	if err != nil {
		return err
	}
	rep := c.Check(x, sp)
	if *render {
		c.RenderFigure1(os.Stdout)
		sp.RenderSPrime(os.Stdout, c)
		fmt.Println()
	}
	fmt.Printf("S: %s\n", c.S.Stats())
	fmt.Printf("S': %s\n", sp.Instance().Stats())
	fmt.Printf("template: %d-regular, %d vertices, girth %d (need ≥ %d)\n",
		params.Degree(), c.Q.NumVertices(), rep.Girth, params.MinCycle())
	fmt.Printf("checks: ok=%v (witness ω=%.4g, %d views compared)\n", rep.OK(), rep.WitnessOmega, rep.ViewsChecked)
	if !rep.OK() {
		return fmt.Errorf("checks failed: %v", rep.Errors)
	}
	opt, err := lp.SolveMaxMin(sp.Instance())
	if err != nil {
		return err
	}
	achieved := sp.Instance().Objective(core.Safe(sp.Instance()))
	fmt.Printf("safe on S': ω = %.4g, ω* = %.4g, ratio %.4g vs theorem bound %.4g\n",
		achieved, opt.Omega, opt.Omega/achieved, params.TheoremBound())
	return nil
}

func cmdFigure2(args []string) error {
	fs := flag.NewFlagSet("figure2", flag.ContinueOnError)
	agent := fs.Int("u", 0, "agent u")
	party := fs.Int("k", 0, "party k")
	resource := fs.Int("i", 0, "resource i")
	radius := fs.Int("radius", 1, "radius R")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	in, err := readInstance(fs.Args())
	if err != nil {
		return err
	}
	g := hypergraph.FromInstance(in, hypergraph.Options{})
	return core.RenderFigure2(os.Stdout, in, g, *agent, *party, *resource, *radius)
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	solPath := fs.String("sol", "", "solution file: one x value per line, agent order (required)")
	tolFlag := fs.Float64("tol", 1e-9, "feasibility tolerance")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *solPath == "" {
		return fmt.Errorf("-sol is required")
	}
	in, err := readInstance(fs.Args())
	if err != nil {
		return err
	}
	x, err := readSolution(*solPath, in.NumAgents())
	if err != nil {
		return err
	}
	violation := in.Violation(x)
	omega := in.Objective(x)
	fmt.Printf("agents: %d\nviolation: %g (tolerance %g)\nω: %g\n", in.NumAgents(), violation, *tolFlag, omega)
	if violation > *tolFlag {
		return fmt.Errorf("solution is infeasible by %g", violation)
	}
	fmt.Println("feasible: yes")
	// If the optimum is cheap to compute, report the ratio too.
	if in.NumAgents() <= 400 {
		opt, err := lp.SolveMaxMin(in)
		if err == nil && omega > 0 {
			fmt.Printf("ω*: %g  (ratio %g)\n", opt.Omega, opt.Omega/omega)
		}
	}
	return nil
}

func readSolution(path string, n int) ([]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(string(data))
	if len(fields) != n {
		return nil, fmt.Errorf("solution has %d values, instance has %d agents", len(fields), n)
	}
	x := make([]float64, n)
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q at position %d: %w", f, i, err)
		}
		x[i] = v
	}
	return x, nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	to := fs.String("to", "json", "json | text")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	in, err := readInstance(fs.Args())
	if err != nil {
		return err
	}
	switch *to {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(in)
	case "text":
		return in.WriteText(os.Stdout)
	default:
		return fmt.Errorf("unknown target format %q", *to)
	}
}

// cmdLPExport writes MPS. Without -agent the whole instance is exported
// as the global max-min LP (maximise ω subject to resource and party
// rows); with -agent and -radius one agent's ball LP (9) is exported —
// the exact rows the averaging algorithm solves, optionally after the
// same presolve reduction the dedup cache fingerprints.
func cmdLPExport(args []string) error {
	fs := flag.NewFlagSet("lp-export", flag.ContinueOnError)
	agent := fs.Int("agent", -1, "export this agent's ball LP instead of the whole instance")
	radius := fs.Int("radius", 1, "ball radius for -agent")
	presolve := fs.Bool("presolve", false, "apply the solver's row reduction to the exported ball LP")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	in, err := readInstance(fs.Args())
	if err != nil {
		return err
	}
	if *agent < 0 {
		if *presolve {
			return fmt.Errorf("-presolve applies to ball LPs; combine it with -agent")
		}
		return in.WriteMPS(os.Stdout)
	}
	g := hypergraph.FromInstance(in, hypergraph.Options{})
	p, ball, err := core.BallProblem(in, g, *agent, *radius, *presolve)
	if err != nil {
		return err
	}
	f := &lp.MPSFile{
		Name:     fmt.Sprintf("BALL_A%d_R%d", *agent, *radius),
		Problem:  p,
		ObjName:  "OMEGA_OBJ",
		ColNames: make([]string, len(p.Obj)),
	}
	for j, v := range ball {
		f.ColNames[j] = fmt.Sprintf("X%d", v)
	}
	f.ColNames[len(ball)] = "OMEGA"
	return lp.WriteMPSFile(os.Stdout, f)
}

// cmdMPSImport reads an instance-shaped MPS file (the lp-export global
// form) and re-emits it in the library's text or JSON format.
func cmdMPSImport(args []string) error {
	fs := flag.NewFlagSet("mps-import", flag.ContinueOnError)
	to := fs.String("to", "text", "text | json")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	rest := fs.Args()
	if len(rest) > 1 {
		return fmt.Errorf("expected at most one MPS file, got %v", rest)
	}
	if len(rest) == 1 && rest[0] != "-" {
		fh, err := os.Open(rest[0])
		if err != nil {
			return err
		}
		defer fh.Close()
		r = fh
	}
	in, err := mmlp.ReadMPS(r)
	if err != nil {
		return err
	}
	switch *to {
	case "text":
		return in.WriteText(os.Stdout)
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(in)
	default:
		return fmt.Errorf("unknown target format %q", *to)
	}
}
