package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"maxminlp"
	"maxminlp/internal/httpapi"
	"maxminlp/internal/mmlpclient"
)

// freePort reserves a loopback port by listening and releasing it; the
// gap before the daemon rebinds is harmless on a test host.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startDaemon starts the mmlpd binary with args, its output to out. The
// process is killed and reaped when the test ends, and by the kernel if
// the test binary dies first.
func startDaemon(t *testing.T, bin string, out io.Writer, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = out, out
	dieWithTest(cmd)
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %v: %v", args, err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// TestClusterProcessSmoke is the end-to-end deployment check CI runs as
// its cluster job: it builds the real mmlpd binary, boots a coordinator
// and two workers as separate OS processes on loopback TCP, replays a
// solve trace with interleaved patches, compares every solution vector
// bit-for-bit against a single-process session, and finally turns the
// binary's own -scrape gate on all three /metrics endpoints.
func TestClusterProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process smoke test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "mmlpd")
	if out, err := exec.Command("go", "build", "-o", bin, "maxminlp/cmd/mmlpd").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	coordHTTP := freePort(t)
	coordCtl := freePort(t)
	worker1 := freePort(t)
	worker2 := freePort(t)

	startDaemon(t, bin, os.Stderr, "-role=coordinator", "-addr", coordHTTP, "-cluster-addr", coordCtl, "-workers", "2", "-quiet")
	startDaemon(t, bin, os.Stderr, "-role=worker", "-join", coordCtl, "-addr", worker1, "-quiet")
	startDaemon(t, bin, os.Stderr, "-role=worker", "-join", coordCtl, "-addr", worker2, "-quiet")

	cl := mmlpclient.New("http://"+coordHTTP, nil)
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := cl.Health()
		if err == nil && h.Role == "coordinator" && h.Workers == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not come up: %+v, %v", h, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The golden trace: load, solve, patch weights, solve, patch
	// topology, solve — mirrored on an in-process reference session.
	info, err := cl.Load(&httpapi.LoadRequest{Torus: &httpapi.LatticeSpec{Dims: []int{6, 6}}})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := maxminlp.Torus([]int{6, 6}, maxminlp.LatticeOptions{})
	sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{})

	solveBoth := func(stage string) {
		res, err := cl.Solve(info.ID, &httpapi.SolveRequest{
			IncludeX: true,
			Queries:  []httpapi.SolveQuery{{Kind: "average", Radius: 2}},
		})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		ref, err := sess.LocalAverage(2)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, stage, res[0].X, ref.X)
		if res[0].Certificate != ref.RatioCertificate() {
			t.Fatalf("%s: certificate %v, want %v", stage, res[0].Certificate, ref.RatioCertificate())
		}
	}
	solveBoth("initial")

	agent := in.Resource(3)[0].Agent
	if _, err := cl.PatchWeights(info.ID, &httpapi.WeightsRequest{
		Resources: []httpapi.CoeffPatch{{Row: 3, Agent: agent, Coeff: 1.75}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sess.UpdateWeights([]maxminlp.WeightDelta{
		{Kind: maxminlp.ResourceWeight, Row: 3, Agent: agent, Coeff: 1.75},
	}); err != nil {
		t.Fatal(err)
	}
	solveBoth("after weights")

	n := sess.Instance().NumAgents()
	if _, err := cl.PatchTopology(info.ID, &httpapi.TopologyRequest{Ops: []httpapi.TopoOp{
		{Op: "addAgent"},
		{Op: "addEdge", Row: 3, Agent: n, Coeff: 0.5},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.UpdateTopology([]maxminlp.TopoUpdate{
		maxminlp.AddAgent(),
		maxminlp.AddResourceEdge(3, n, 0.5),
	}); err != nil {
		t.Fatal(err)
	}
	solveBoth("after topology")

	snap, err := cl.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Instances) != 1 || !snap.Instances[0].InSync {
		t.Fatalf("cluster snapshot after trace: %+v", snap)
	}

	// The -scrape gate against all three processes' expositions.
	for _, addr := range []string{coordHTTP, worker1, worker2} {
		url := fmt.Sprintf("http://%s/metrics", addr)
		if out, err := exec.Command(bin, "-scrape", url).CombinedOutput(); err != nil {
			t.Fatalf("scrape %s: %v\n%s", url, err, out)
		}
	}
}
