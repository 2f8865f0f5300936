package main

import (
	"encoding/json"
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

// freeAddr reserves an OS-assigned port and releases it for a child
// process to rebind. The small race window is acceptable for a smoke
// test that owns the whole machine's test slice.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestCrashRecoverySmoke is the end-to-end durability drill with real
// processes and real SIGKILL: build the daemon, form a 2-worker
// cluster with a WAL-backed coordinator, kill a worker mid-patch-storm
// (its replacement rejoins and catches up), then kill the coordinator
// itself and restart it from the data directory. The healed cluster
// must report every replica in sync and solve both the golden corpus
// and the patched instance bit-identically to a clean single-process
// reference.
func TestCrashRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level crash smoke skipped in -short mode")
	}
	scratch := t.TempDir()
	bin := filepath.Join(scratch, "mmlpd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building mmlpd: %v\n%s", err, out)
	}
	dataDir := filepath.Join(scratch, "state")
	httpAddr, clusterAddr := freeAddr(t), freeAddr(t)

	logs, err := os.Create(filepath.Join(scratch, "procs.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logs.Close()
	spawn := func(args ...string) *exec.Cmd { return startDaemon(t, bin, logs, args...) }
	coordArgs := []string{
		"-role=coordinator", "-addr", httpAddr, "-cluster-addr", clusterAddr,
		"-workers", "2", "-data-dir", dataDir, "-fsync", "always",
		"-heartbeat", "100ms", "-quiet",
	}
	workerArgs := []string{"-role=worker", "-join", clusterAddr, "-addr", "127.0.0.1:0", "-quiet"}

	coord := spawn(coordArgs...)
	spawn(workerArgs...)
	w2 := spawn(workerArgs...)
	cl := mmlpclient.New("http://"+httpAddr, nil)
	waitInSync(t, cl, 2, 30*time.Second)

	// One golden-corpus instance pins the answers to the committed PR 5
	// traces; one generated instance takes the patch storm, mirrored
	// onto an in-process reference solver.
	golden := goldenFamilies()[0] // torus6x6
	rawGolden, err := json.Marshal(golden.in)
	if err != nil {
		t.Fatal(err)
	}
	gInfo, err := cl.Load(&httpapi.LoadRequest{Name: golden.name, Instance: rawGolden})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PatchTopology(gInfo.ID, &httpapi.TopologyRequest{
		Ops: goldenChurnOps(golden.in),
	}); err != nil {
		t.Fatal(err)
	}
	sInfo, err := cl.Load(&httpapi.LoadRequest{Torus: &httpapi.LatticeSpec{Dims: []int{5, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	refIn, _ := maxminlp.Torus([]int{5, 5}, maxminlp.LatticeOptions{})
	ref := maxminlp.NewSolver(refIn, maxminlp.GraphOptions{})

	// Patch storm with a SIGKILL'd worker in the middle of it: patches
	// must keep committing (degraded serving, never a refused write),
	// and the replacement worker catches the missed ones up from the
	// coordinator's journal.
	for i := 0; i < 10; i++ {
		if i == 4 {
			w2.Process.Kill()
			w2.Wait()
		}
		if i == 7 {
			spawn(workerArgs...)
		}
		row := i % refIn.NumResources()
		agent := refIn.Resource(row)[0].Agent
		coeff := 1 + float64(i)/8
		if _, err := cl.PatchWeights(sInfo.ID, &httpapi.WeightsRequest{
			Resources: []httpapi.CoeffPatch{{Row: row, Agent: agent, Coeff: coeff}},
		}); err != nil {
			t.Fatalf("patch %d: %v", i, err)
		}
		if err := ref.UpdateWeights([]maxminlp.WeightDelta{
			{Kind: maxminlp.ResourceWeight, Row: row, Agent: agent, Coeff: coeff},
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitInSync(t, cl, 2, 60*time.Second)

	// Now the coordinator itself dies without warning. Its restart
	// replays the WAL, re-seeds the worker journal, and readmits the
	// surviving workers when their digest handshakes verify.
	coord.Process.Kill()
	coord.Wait()
	spawn(coordArgs...)
	waitInSync(t, cl, 2, 60*time.Second)

	res, err := cl.Solve(gInfo.ID, &httpapi.SolveRequest{
		IncludeX: true,
		Queries:  []httpapi.SolveQuery{{Kind: "average", Radius: 1}, {Kind: "average", Radius: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameHex(t, "reborn "+golden.name+"/R1", res[0].X, goldenX(t, golden.name, 1))
	sameHex(t, "reborn "+golden.name+"/R2", res[1].X, goldenX(t, golden.name, 2))

	res, err = cl.Solve(sInfo.ID, &httpapi.SolveRequest{
		IncludeX: true,
		Queries:  []httpapi.SolveQuery{{Kind: "safe"}, {Kind: "average", Radius: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "reborn storm/safe", res[0].X, ref.Safe())
	avg, err := ref.LocalAverage(1)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "reborn storm/average", res[1].X, avg.X)
}
