package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"maxminlp/internal/mmlpclient"
	"maxminlp/internal/obs"
)

// proc is one running mmlpd process. Its stderr is scanned for the
// address line the daemon logs at start-up and drained until exit.
type proc struct {
	pid  int
	cmd  *exec.Cmd
	addr chan string
	done chan struct{}
}

// procs tracks every started process so an interrupted run still stops
// and reaps them all.
var procs struct {
	sync.Mutex
	all []*proc
}

// startProc runs bin with args and returns once the process has logged
// a line containing marker, with the text after it (the bound address).
func startProc(bin string, args []string, marker string) (*proc, string, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{pid: cmd.Process.Pid, cmd: cmd, addr: make(chan string, 1), done: make(chan struct{})}
	procs.Lock()
	procs.all = append(procs.all, p)
	procs.Unlock()
	go func() {
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			if i := strings.Index(sc.Text(), marker); i >= 0 && !found {
				p.addr <- strings.TrimSpace(sc.Text()[i+len(marker):])
				found = true
			}
		}
		io.Copy(io.Discard, stderr)
		cmd.Wait()
		close(p.done)
	}()
	select {
	case a := <-p.addr:
		return p, a, nil
	case <-p.done:
		return nil, "", fmt.Errorf("%s %v exited during start-up", bin, args)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, "", fmt.Errorf("%s %v: no %q line within 30s", bin, args, marker)
	}
}

// stop kills the process and waits until it has been reaped.
func (p *proc) stop() {
	p.cmd.Process.Kill()
	<-p.done
}

// stopAll stops every process this run started.
func stopAll() {
	procs.Lock()
	all := procs.all
	procs.all = nil
	procs.Unlock()
	for _, p := range all {
		p.stop()
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// deployment is one running mmlpd daemon.
type deployment struct {
	proc    *proc
	base    string // URL of the daemon
	dataDir string
}

// deploy starts the workload's daemon and returns once it answers
// healthz as ready.
func deploy(w *workload, bin, dataDir string) (*deployment, error) {
	args := []string{"-addr", "127.0.0.1:0", "-quiet"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync", "always")
	}
	p, addr, err := startProc(bin, args, "mmlpd listening on ")
	if err != nil {
		return nil, err
	}
	d := &deployment{proc: p, base: "http://" + addr, dataDir: dataDir}
	if err := d.waitReady(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *deployment) waitReady() error {
	c := mmlpclient.New(d.base, nil)
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := c.Health()
		if err == nil && h.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not ready within 30s (last: %+v, %v)", d.base, h, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *deployment) stop() {
	d.proc.stop()
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}

// scrape reads the daemon's /metrics and sums the samples of each
// metric name over label sets.
func (d *deployment) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	fams, err := obs.ParseExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			out[s.Name] += s.Value
		}
	}
	return out, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
