package main

import (
	"math/rand"

	"maxminlp"
	"maxminlp/internal/httpapi"
	"maxminlp/internal/mmlp"
)

// workload is one traffic mix against one mmlpd deployment.
type workload struct {
	name string
	why  string
	dims []int // random-weight torus
	// radius is the averaging radius of the workload's queries.
	radius int
	// wal runs the daemon with a data directory and fsync=always.
	wal bool
	// churn selects the structural stream; otherwise first-seen weights.
	churn bool
	// queries is the solve batch of every read.
	queries []httpapi.SolveQuery

	// Open-loop workloads send at fixed offered rates instead of closing
	// the loop: nominalRPS for the end-to-end window, ladder for the
	// sustainable-rate search, patchShare of requests being patches.
	open       bool
	nominalRPS float64
	ladder     []float64
	patchShare float64
}

var workloads = []*workload{
	{
		name:    "weights-firstseen",
		why:     "LP dominates op time and no patched state repeats, so lp and core changes show here first; its trace replays dist/wire in-process, as the cluster workload was too unsteady on 2 vCPUs",
		dims:    []int{24, 24},
		radius:  2,
		queries: []httpapi.SolveQuery{{Kind: "average", Radius: 2}},
	},
	{
		name:    "topo-churn-wal",
		why:     "structural write path: join/leave churn through hypergraph/mmlp patching and WAL fsync; this record supersedes the non-comparable BENCH_PR*.json snapshots",
		dims:    []int{24, 24},
		radius:  1,
		wal:     true,
		churn:   true,
		queries: []httpapi.SolveQuery{{Kind: "average", Radius: 1}, {Kind: "certificate", Radius: 1}},
	},
	{
		name:   "read-mix",
		why:    "open loop at 400 req/s (40% of the measured max rate), reads beside 5% first-seen writes: HTTP encode/decode and the instance lock dominate, so an LP gain must read no change here",
		dims:   []int{32, 32},
		radius: 1,
		queries: []httpapi.SolveQuery{
			{Kind: "safe"}, {Kind: "average", Radius: 1}, {Kind: "certificate", Radius: 1},
		},
		open: true,
		// The nominal rate is 40% of the median mmlpd.max_rate_rps the
		// traced ladder measured on a 2-vCPU host (600, 1000 and 1600
		// req/s on seeds 1-3) and below the lowest of them, so the window
		// measures service plus light queueing, not saturation.
		nominalRPS: 400,
		ladder:     []float64{200, 400, 600, 800, 1000, 1200, 1600},
		patchShare: 0.05,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// instance builds the workload's initial instance exactly as the daemon
// builds it from loadRequest.
func (w *workload) instance(seed int64) *mmlp.Instance {
	in, _ := maxminlp.Torus(w.dims, maxminlp.LatticeOptions{
		RandomWeights: true, Rng: rand.New(rand.NewSource(seed)),
	})
	return in
}

func (w *workload) loadRequest(seed int64) *httpapi.LoadRequest {
	return &httpapi.LoadRequest{
		Name:  w.name,
		Torus: &httpapi.LatticeSpec{Dims: w.dims, RandomWeights: true, Seed: seed},
	}
}

func (w *workload) solveRequest() *httpapi.SolveRequest {
	return &httpapi.SolveRequest{Queries: w.queries, IncludeX: true}
}

// newStream returns the workload's seeded mutation stream over the
// initial instance.
func (w *workload) newStream(seed int64, in *mmlp.Instance) stream {
	if w.churn {
		return newChurnStream(seed, in)
	}
	return newWeightStream(seed, in)
}
