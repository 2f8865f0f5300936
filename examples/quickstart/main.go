// Quickstart: build a tiny max-min LP by hand and solve it three ways —
// the centralised LP optimum, the safe local algorithm (equation (2) of
// the paper), and the Theorem-3 local averaging algorithm.
//
// The instance is the motivating shape of the paper in miniature: three
// agents compete pairwise for two unit resources while two parties each
// depend on a different subset of the agents.
//
//	resources:  x0 + x1 ≤ 1,   x1 + x2 ≤ 1
//	parties:    ω ≤ x0 + x1,   ω ≤ x2
//
// The optimum puts everything of resource 1 into x2 (party 1's only
// supporter) and everything of resource 0 into x0/x1.
package main

import (
	"fmt"
	"log"

	"maxminlp"
)

func main() {
	b := maxminlp.NewBuilder(3)
	b.AddUnitResource(0, 1)
	b.AddUnitResource(1, 2)
	b.AddUniformParty(1, 0, 1)
	b.AddUniformParty(1, 2)
	in, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("instance:", in.Stats())

	opt, err := maxminlp.SolveOptimal(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal     ω = %.4f  x = %.3v\n", opt.Omega, opt.X)

	safe := maxminlp.Safe(in)
	fmt.Printf("safe        ω = %.4f  x = %.3v  (proven ratio ≤ ΔVI = %.0f)\n",
		in.Objective(safe), safe, maxminlp.SafeRatioBound(in))

	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	for _, radius := range []int{1, 2} {
		avg, err := maxminlp.LocalAverage(in, g, radius)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("average R=%d ω = %.4f  x = %.3v  (certificate %.3f)\n",
			radius, in.Objective(avg.X), avg.X, avg.RatioCertificate())
	}

	// The same algorithms as real message-passing protocols: every agent
	// is a node exchanging messages with its neighbours in H, here on the
	// sharded engine's pool of worker goroutines.
	nw, err := maxminlp.NewNetwork(in, g)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := maxminlp.NewEngine("sharded", maxminlp.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	tr, err := eng.Run(nw, maxminlp.AverageProtocol{Radius: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed average R=1: ω = %.4f after %d rounds, %d messages\n",
		in.Objective(tr.X), tr.Rounds, tr.Messages)

	// For repeated queries, hold a Solver session: the hypergraph, ball
	// indexes and solved local LPs persist across calls, and weight
	// changes re-solve only the neighbourhoods that can see them — with
	// results bit-identical to the one-shot calls above. (cmd/mmlpd
	// serves sessions like this one over HTTP.)
	sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})
	if err := sess.UpdateWeights([]maxminlp.WeightDelta{
		{Kind: maxminlp.ResourceWeight, Row: 1, Agent: 2, Coeff: 2}, // x1 + 2·x2 ≤ 1
	}); err != nil {
		log.Fatal(err)
	}
	avg, err := sess.LocalAverage(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session after update: ω = %.4f  x = %.3v\n",
		sess.Instance().Objective(avg.X), avg.X)
}
