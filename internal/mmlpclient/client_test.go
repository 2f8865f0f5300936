package mmlpclient

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"maxminlp/internal/httpapi"
)

// TestClientAgainstStub exercises the request shapes and the error
// decoding against a stub server; the round trips against a live daemon
// live in cmd/mmlpd's tests.
func TestClientAgainstStub(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/instances", func(w http.ResponseWriter, r *http.Request) {
		var req httpapi.LoadRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Torus == nil {
			t.Errorf("stub got malformed load: %v %+v", err, req)
		}
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(httpapi.InstanceInfo{ID: "i1", Agents: 16})
	})
	mux.HandleFunc("GET /v1/instances", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(httpapi.ListResponse{SchemaVersion: 1,
			Instances: []httpapi.InstanceInfo{{ID: "i1"}}})
	})
	mux.HandleFunc("GET /v1/instances/i9", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(httpapi.ErrorEnvelope{Error: &httpapi.Error{
			Code: httpapi.CodeNotFound, Message: "no such instance"}})
	})
	mux.HandleFunc("GET /v1/instances/broken", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "bare text", http.StatusTeapot)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL+"/", nil)

	info, err := c.Load(&httpapi.LoadRequest{Torus: &httpapi.LatticeSpec{Dims: []int{4, 4}}})
	if err != nil || info.ID != "i1" || info.Agents != 16 {
		t.Fatalf("Load = %+v, %v", info, err)
	}
	list, err := c.List()
	if err != nil || list.SchemaVersion != 1 || len(list.Instances) != 1 {
		t.Fatalf("List = %+v, %v", list, err)
	}

	// A structured daemon error surfaces as *httpapi.Error with code and
	// status, reachable through errors.As.
	_, err = c.Get("i9")
	var apiErr *httpapi.Error
	if !errors.As(err, &apiErr) || apiErr.Code != httpapi.CodeNotFound || apiErr.Status != http.StatusNotFound {
		t.Fatalf("Get(i9) err = %v", err)
	}

	// A non-envelope failure still yields a coded error.
	_, err = c.Get("broken")
	if !errors.As(err, &apiErr) || apiErr.Code != httpapi.CodeInternal || apiErr.Status != http.StatusTeapot {
		t.Fatalf("Get(broken) err = %v", err)
	}
}

// TestSolveReusesConnection: the client reads every response body to
// EOF, so solves and errors whose bodies arrive chunked (no
// Content-Length) keep one connection alive instead of opening one per
// call. X vectors repeat, so the client's memo serves most of them.
func TestSolveReusesConnection(t *testing.T) {
	x := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i) / 3
	}
	results := []httpapi.SolveResult{{Kind: "average", Radius: 1, Omega: 0.5, Micros: 9, X: x}}
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.URL.Path != "/v1/instances/i1/solve" {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(httpapi.ErrorEnvelope{Error: &httpapi.Error{
				Code: httpapi.CodeNotFound, Message: strings.Repeat("no such instance ", 500)}})
			return
		}
		json.NewEncoder(w).Encode(results)
	}))
	var conns atomic.Int32
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	c := New(ts.URL, nil)
	req := &httpapi.SolveRequest{Queries: []httpapi.SolveQuery{{Kind: "average", Radius: 1}}, IncludeX: true}
	for i := 0; i < 20; i++ {
		id := "i1"
		if i%5 == 4 {
			id = "i2"
		}
		res, err := c.Solve(id, req)
		var apiErr *httpapi.Error
		switch {
		case id == "i2" && !(errors.As(err, &apiErr) && apiErr.Code == httpapi.CodeNotFound):
			t.Fatalf("solve %d: err = %v, want not_found", i, err)
		case id == "i1" && (err != nil || len(res) != 1 || !slices.Equal(res[0].X, x)):
			t.Fatalf("solve %d: %+v, %v", i, res, err)
		case id == "i1":
			res[0].X[0] = -1 // the caller owns its copy
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("20 calls opened %d connections, want 1", n)
	}
}
