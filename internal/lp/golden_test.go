package lp_test

import (
	"os"
	"testing"

	"maxminlp/internal/lp"
	"maxminlp/internal/lp/lpcorpus"
)

// goldenCorpus is the committed LP corpus with the outcomes recorded
// from the full-tableau simplex that preceded the condensed tableau (see
// internal/lp/testdata/gencorpus).
const goldenCorpus = "testdata/golden.lpc.gz"

func readGolden(tb testing.TB) []lpcorpus.Record {
	tb.Helper()
	f, err := os.Open(goldenCorpus)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	recs, err := lpcorpus.Read(f)
	if err != nil {
		tb.Fatal(err)
	}
	return recs
}

// TestGoldenCorpus replays every corpus LP through one reused Workspace
// and through the one-shot lp.SolveWithRule, and requires the recorded
// status, pivot count and the bits of X, Value and Duals — signed zeros
// included — from both.
func TestGoldenCorpus(t *testing.T) {
	recs := readGolden(t)
	if n := len(lpcorpus.Filter(recs, lpcorpus.BallPrefix)); n < 1000 {
		t.Fatalf("corpus has %d ball LPs, want the full torus", n)
	}
	ws := lp.NewWorkspace()
	for i := range recs {
		r := &recs[i]
		sol, err := ws.SolveWithRule(r.Problem, r.Rule)
		if s := r.Mismatch(sol, err); s != "" {
			t.Fatalf("%s via Workspace: %s", r.Name, s)
		}
		sol, err = lp.SolveWithRule(r.Problem, r.Rule)
		if s := r.Mismatch(sol, err); s != "" {
			t.Fatalf("%s via lp.SolveWithRule: %s", r.Name, s)
		}
	}
}

// BenchmarkBallLP solves every ball LP of the golden corpus once per op
// on a reused Workspace — the Theorem-3 hot path without the ball
// assembly around it — and reports the cost per simplex pivot and the
// pivots per op, which must stay at the corpus total.
func BenchmarkBallLP(b *testing.B) {
	balls := lpcorpus.Filter(readGolden(b), lpcorpus.BallPrefix)
	ws := lp.NewWorkspace()
	pivots := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range balls {
			sol, err := ws.Solve(balls[j].Problem)
			if err != nil {
				b.Fatal(err)
			}
			pivots += sol.Pivots
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pivots), "ns/pivot")
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}
