package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"maxminlp"
	"maxminlp/internal/httpapi"
	"maxminlp/internal/mmlpclient"
)

// readMixQueries is the read batch of perfbench's read-mix workload.
var readMixQueries = []solveQuery{{Kind: "safe"}, {Kind: "average", Radius: 1}, {Kind: "certificate", Radius: 1}}

// randomTorus loads a random-weight torus into the daemon and returns
// its id with an in-process reference session on the same instance.
func randomTorus(t *testing.T, cl *mmlpclient.Client, dims []int, seed int64) (string, *maxminlp.Solver) {
	t.Helper()
	spec := &latticeSpec{Dims: dims, RandomWeights: true, Seed: seed}
	info, err := cl.Load(&loadRequest{Torus: spec})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := maxminlp.Torus(dims, latticeOptions(spec))
	return info.ID, maxminlp.NewSolver(in, maxminlp.GraphOptions{})
}

// freshPatch draws a weight patch of one random resource entry with a
// new coefficient.
func freshPatch(rng *rand.Rand, in *maxminlp.Instance) *weightsRequest {
	row := rng.Intn(in.NumResources())
	entries := in.Resource(row)
	return &weightsRequest{Resources: []coeffPatch{{
		Row: row, Agent: entries[rng.Intn(len(entries))].Agent, Coeff: 0.5 + rng.Float64(),
	}}}
}

// TestSolveBodyMatchesEncodingJSON replays a seeded patch-then-read
// stream of read-mix batches and requires every solve body to be exactly
// what encoding/json writes for the results it carries (with a matching
// Content-Length), and every X to equal an in-process session's bit for
// bit. Repeated reads take the X memo, so both of its paths are checked.
func TestSolveBodyMatchesEncodingJSON(t *testing.T) {
	s := newServer(nil)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	cl := mmlpclient.New(ts.URL, nil)
	id, ref := randomTorus(t, cl, []int{10, 10}, 3)
	rng := rand.New(rand.NewSource(7))
	reqBody, _ := json.Marshal(solveRequest{Queries: readMixQueries, IncludeX: true})

	for step := 0; step < 40; step++ {
		if step%4 == 3 {
			patch := freshPatch(rng, ref.Instance())
			if _, err := cl.PatchWeights(id, patch); err != nil {
				t.Fatal(err)
			}
			if err := ref.UpdateWeights(weightDeltas(patch)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		resp, err := http.Post(ts.URL+"/v1/instances/"+id+"/solve", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) {
			t.Fatalf("step %d: status %d, Content-Length %d for %d bytes, %v", step, resp.StatusCode, resp.ContentLength, len(body), err)
		}
		var res []solveResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(res)
		if !bytes.Equal(body, append(want, '\n')) {
			t.Fatalf("step %d: body differs from encoding/json:\n got %s\nwant %s", step, body, want)
		}
		avg, err := ref.LocalAverage(1)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, "safe", res[0].X, ref.Safe())
		bitIdentical(t, "average", res[1].X, avg.X)
		if res[1].Omega != ref.Instance().Objective(avg.X) {
			t.Fatalf("step %d: ω %v, want %v", step, res[1].Omega, ref.Instance().Objective(avg.X))
		}
	}
	if s.obs.xMemoHit.Value() == 0 || s.obs.xMemoMiss.Value() == 0 {
		t.Fatalf("memo hits %d, misses %d: both paths should run", s.obs.xMemoHit.Value(), s.obs.xMemoMiss.Value())
	}
}

// TestSolveUnboundedOmegaIsCodedError: with no nonempty party row ω is
// +Inf, which JSON cannot carry. The daemon must answer with a coded
// error envelope, not a 200 with an empty body.
func TestSolveUnboundedOmegaIsCodedError(t *testing.T) {
	ts := httptest.NewServer(newServer(nil).handler())
	defer ts.Close()
	cl := mmlpclient.New(ts.URL, nil)
	info, err := cl.Load(&loadRequest{Instance: []byte(
		`{"agents":2,"resources":[[{"Agent":0,"Coeff":1},{"Agent":1,"Coeff":1}]],"parties":[]}`)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Solve(info.ID, &solveRequest{Queries: []solveQuery{{Kind: "safe"}}, IncludeX: true})
	var apiErr *httpapi.Error
	if !errors.As(err, &apiErr) || apiErr.Code != httpapi.CodeInvalidArgument || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("solve with ω = +Inf: err = %v, want a coded %s error", err, httpapi.CodeInvalidArgument)
	}
}

// TestConcurrentSolvesOneClient runs readers sharing one Client (and so
// one X memo) against a stream of weight patches. Every batch must equal
// one patch prefix's in-process answer bit for bit, no reader may see an
// older prefix after a newer one, and scribbling on a returned X must
// not reach later answers.
func TestConcurrentSolvesOneClient(t *testing.T) {
	ts := httptest.NewServer(newServer(nil).handler())
	defer ts.Close()
	cl := mmlpclient.New(ts.URL, nil)
	id, ref := randomTorus(t, cl, []int{6, 6}, 5)
	rng := rand.New(rand.NewSource(11))

	// want[v] is the answer after the first v patches.
	var patches []*weightsRequest
	var want [][2][]float64
	for v := 0; ; v++ {
		avg, err := ref.LocalAverage(1)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, [2][]float64{append([]float64(nil), ref.Safe()...), append([]float64(nil), avg.X...)})
		if v == 12 {
			break
		}
		patches = append(patches, freshPatch(rng, ref.Instance()))
		if err := ref.UpdateWeights(weightDeltas(patches[v])); err != nil {
			t.Fatal(err)
		}
	}
	req := &solveRequest{Queries: []solveQuery{{Kind: "safe"}, {Kind: "average", Radius: 1}}, IncludeX: true}
	version := func(res []solveResult) int {
		for v := len(want) - 1; v >= 0; v-- {
			if sameX(res[0].X, want[v][0]) && sameX(res[1].X, want[v][1]) {
				return v
			}
		}
		return -1
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for reads := 0; ; reads++ {
				select {
				case <-done:
					if reads > 5 {
						return
					}
				default:
				}
				res, err := cl.Solve(id, req)
				if err != nil {
					t.Error(err)
					return
				}
				v := version(res)
				if v < 0 {
					t.Errorf("read %d matches no patch prefix", reads)
					return
				}
				if v < last {
					t.Errorf("read %d matches patch prefix %d after prefix %d", reads, v, last)
					return
				}
				last = v
				for _, r := range res {
					for i := range r.X {
						r.X[i] = math.NaN()
					}
				}
			}
		}()
	}
	for _, p := range patches {
		if _, err := cl.PatchWeights(id, p); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	res, err := cl.Solve(id, req)
	if err != nil {
		t.Fatal(err)
	}
	if v := version(res); v != len(patches) {
		t.Fatalf("final read matches patch prefix %d, want %d", v, len(patches))
	}
}

func sameX(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
