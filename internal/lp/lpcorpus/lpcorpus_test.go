package lpcorpus

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"maxminlp/internal/lp"
)

// TestRoundTrip writes and re-reads records covering every outcome and
// a −0.0 coefficient (which the sparse encoding must keep, unlike +0.0).
func TestRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	problems := []*lp.Problem{
		{Obj: []float64{1, 0}, Constraints: []lp.Constraint{
			{Coeffs: []float64{1, 1}, Rel: lp.LE, RHS: 2},
			{Coeffs: []float64{negZero, 1}, Rel: lp.GE, RHS: -1},
		}},
		{Minimize: true, Obj: []float64{negZero}, Constraints: []lp.Constraint{
			{Coeffs: []float64{1}, Rel: lp.EQ, RHS: 0.25},
		}},
		{Obj: []float64{1}, Constraints: []lp.Constraint{{Coeffs: []float64{1}, Rel: lp.GE, RHS: 1}}}, // unbounded
		{Obj: []float64{1}, Constraints: []lp.Constraint{{Coeffs: []float64{0}, Rel: lp.GE, RHS: 1}}}, // infeasible
	}
	var recs []Record
	for i, p := range problems {
		recs = append(recs, Capture(strings.Repeat("x", i), p, lp.PivotRule(i%2)))
	}
	recs = append(recs, Record{Name: "failed", Problem: problems[0], Failed: true})
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip changed the records:\n got %+v\nwant %+v", got, recs)
	}
	if math.Float64bits(got[0].Problem.Constraints[1].Coeffs[0]) != math.Float64bits(negZero) {
		t.Fatal("−0.0 coefficient lost its sign")
	}
	for i := range got[:len(problems)] {
		r := &got[i]
		sol, err := lp.SolveWithRule(r.Problem, r.Rule)
		if s := r.Mismatch(sol, err); s != "" {
			t.Fatalf("record %d: %s", i, s)
		}
	}
	sol, err := lp.Solve(problems[0])
	if err != nil {
		t.Fatal(err)
	}
	sol.X[1] = math.Copysign(sol.X[1], -1) // flip one sign bit (X[1] is 0)
	if got[0].Mismatch(sol, nil) == "" {
		t.Fatal("Mismatch missed a flipped sign bit in X")
	}
}
