package lpcorpus

import (
	"fmt"
	"math"
	"math/rand"

	"maxminlp/internal/core"
	"maxminlp/internal/gen"
	"maxminlp/internal/hypergraph"
	"maxminlp/internal/lp"
	"maxminlp/internal/mmlp"
)

// Record name prefixes: the ball LPs of the Theorem-3 algorithm, and the
// seeded random LPs that cover what ball LPs never reach (GE/EQ rows,
// negative rhs, minimisation, Bland, infeasible and unbounded cases).
const (
	BallPrefix   = "ball/"
	randomPrefix = "random/"
)

// Generate builds the corpus problems and records the outcome the
// current solver produces for each. The corpus is an oracle for solver
// changes, so it is recorded once from a trusted solver and committed;
// regenerating it from the code under test would only re-record that
// code's behaviour.
func Generate() ([]Record, error) {
	recs, err := ballRecords()
	if err != nil {
		return nil, err
	}
	return append(recs, randomRecords()...), nil
}

// Ball LPs: every radius-2 ball of the 24×24 random-weight torus (seed
// 1), then the balls a first-seen weight patch changes, for 20 patches.
const (
	ballSide    = 24
	ballRadius  = 2
	ballPatches = 20
)

func ballRecords() ([]Record, error) {
	in, _ := gen.Torus([]int{ballSide, ballSide}, gen.LatticeOptions{RandomWeights: true, Rng: rand.New(rand.NewSource(1))})
	g := hypergraph.FromInstance(in, hypergraph.Options{})
	balls := g.BallIndex(ballRadius, 1)
	var recs []Record
	add := func(in *mmlp.Instance, g *hypergraph.Graph, name string, u int) error {
		p, _, err := core.BallProblem(in, g, u, ballRadius, false)
		if err != nil {
			return err
		}
		recs = append(recs, Capture(BallPrefix+name, p, lp.DantzigThenBland))
		return nil
	}
	for u := 0; u < in.NumAgents(); u++ {
		if err := add(in, g, fmt.Sprintf("u=%d", u), u); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[uint64]bool{}
	for i := 0; i < in.NumResources(); i++ {
		for _, e := range in.Resource(i) {
			seen[math.Float64bits(e.Coeff)] = true
		}
	}
	for k := 0; k < in.NumParties(); k++ {
		for _, e := range in.Party(k) {
			seen[math.Float64bits(e.Coeff)] = true
		}
	}
	fresh := func() float64 {
		for {
			c := 0.5 + rng.Float64()
			if b := math.Float64bits(c); !seen[b] {
				seen[b] = true
				return c
			}
		}
	}
	for op := 0; op < ballPatches; op++ {
		v := rng.Intn(in.NumAgents())
		rs, ks := in.AgentResources(v), in.AgentParties(v)
		var res, par []mmlp.CoeffUpdate
		for _, j := range rng.Perm(len(rs))[:2] {
			res = append(res, mmlp.CoeffUpdate{Row: rs[j], Agent: v, Coeff: fresh()})
		}
		for _, j := range rng.Perm(len(ks))[:2] {
			par = append(par, mmlp.CoeffUpdate{Row: ks[j], Agent: v, Coeff: fresh()})
		}
		next, err := in.UpdateCoeffs(res, par)
		if err != nil {
			return nil, err
		}
		in = next
		// The graph caches a CSR with the coefficients it was built from.
		g = hypergraph.FromInstance(in, hypergraph.Options{})
		for u := 0; u < in.NumAgents(); u++ {
			for _, w := range balls.Ball(u) {
				if int(w) == v {
					if err := add(in, g, fmt.Sprintf("patch=%d/u=%d", op, u), u); err != nil {
						return nil, err
					}
					break
				}
			}
		}
	}
	return recs, nil
}

// randomRecords solves seeded random LPs under both pivot rules. Small
// integer-valued halves make degenerate ratio ties common; a share of
// rows and objectives carry general floats, −0.0 or all-zero rows.
func randomRecords() []Record {
	rng := rand.New(rand.NewSource(7))
	var recs []Record
	for i := 0; i < 400; i++ {
		var p *lp.Problem
		if i < 300 {
			p = randomProblem(rng, 1+rng.Intn(6), 1+rng.Intn(8))
		} else {
			p = randomProblem(rng, 4+rng.Intn(16), 4+rng.Intn(20))
		}
		for _, rule := range []lp.PivotRule{lp.DantzigThenBland, lp.BlandOnly} {
			recs = append(recs, Capture(fmt.Sprintf("%sp=%d/rule=%d", randomPrefix, i, rule), p, rule))
		}
	}
	return recs
}

func randomProblem(rng *rand.Rand, n, m int) *lp.Problem {
	coeff := func() float64 {
		switch x := rng.Intn(20); {
		case x < 6:
			return 0
		case x == 6:
			return math.Copysign(0, -1)
		case x == 7:
			return rng.NormFloat64() * 3
		default:
			return float64(rng.Intn(7)-3) / 2
		}
	}
	p := &lp.Problem{Minimize: rng.Intn(2) == 0, Obj: make([]float64, n)}
	for j := range p.Obj {
		p.Obj[j] = coeff()
	}
	// Most problems are built around a point x0 ≥ 0 that satisfies every
	// row, often with equality (degenerate vertices, ratio ties); the rest
	// draw rhs blindly and are mostly infeasible.
	var x0 []float64
	if rng.Intn(4) != 0 {
		x0 = make([]float64, n)
		for j := range x0 {
			x0[j] = float64(rng.Intn(4)) / 2
		}
	}
	for r := 0; r < m; r++ {
		c := lp.Constraint{Coeffs: make([]float64, n), Rel: lp.Rel(rng.Intn(3))}
		if rng.Intn(25) != 0 { // else an all-zero row
			for j := range c.Coeffs {
				c.Coeffs[j] = coeff()
			}
		}
		switch {
		case x0 != nil:
			for j, a := range c.Coeffs {
				c.RHS += a * x0[j]
			}
			gap := float64(rng.Intn(3)) / 2
			switch c.Rel {
			case lp.LE:
				c.RHS += gap
			case lp.GE:
				c.RHS -= gap
			}
		case rng.Intn(10) == 0:
			c.RHS = rng.NormFloat64() * 2
		default:
			c.RHS = float64(rng.Intn(13)-4) / 2
		}
		p.Constraints = append(p.Constraints, c)
	}
	return p
}
