// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON map, so the repo's perf trajectory can be
// tracked file-to-file across PRs instead of by eyeballing logs. The
// bench-smoke CI job runs every benchmark once and publishes the result
// as the bench-smoke.json artifact:
//
//	go test -run '^$' -bench . -benchtime 1x ./... | tee bench.txt
//	go run ./cmd/benchjson -o bench-smoke.json bench.txt
//
// Each benchmark maps to its parsed metrics: ns/op always, plus B/op,
// allocs/op and any custom b.ReportMetric series present (the dedup
// benchmarks report solves/op and avoided/op). When the same benchmark
// appears more than once (a `-count N` run), metrics are aggregated
// elementwise by minimum — the standard noise filter for throughput
// numbers, since scheduling jitter only ever inflates them.
//
// Relative perf assertions gate CI without golden absolute numbers:
//
//	go run ./cmd/benchjson \
//	  -assert 'BenchmarkSessionObs/cold:ns/op<=1.02*BenchmarkSession/cold:ns/op' \
//	  bench.txt
//
// exits non-zero when the left side exceeds factor×right side, so the
// instrumented session pays its <2% overhead budget on every push.
//
// The emitted JSON carries one extra top-level "_meta" key recording the
// host the numbers came from — GOMAXPROCS, NumCPU, GOOS/GOARCH, the Go
// version and a hashed hostname fingerprint — so scaling numbers in
// committed BENCH_* files are interpretable across machines (a flat
// P=1..8 matrix means nothing without knowing the host had one core).
// Benchmark keys themselves are unchanged and stay stable across hosts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// parseBench extracts metric maps from `go test -bench` output lines of
// the form:
//
//	BenchmarkName-8   10   123456 ns/op   789 B/op   12 allocs/op
//
// The GOMAXPROCS suffix is stripped so keys stay stable across hosts.
func parseBench(r io.Reader) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		metrics := make(map[string]float64)
		// fields[1] is the iteration count; the rest come in value/unit
		// pairs.
		if iters, err := strconv.ParseFloat(fields[1], 64); err == nil {
			metrics["iterations"] = iters
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			metrics[fields[i+1]] = v
		}
		if len(metrics) > 1 {
			if prev, ok := out[name]; ok {
				mergeMin(prev, metrics)
			} else {
				out[name] = metrics
			}
		}
	}
	return out, sc.Err()
}

// mergeMin folds a repeated run of the same benchmark into the
// accumulated metrics, keeping the elementwise minimum. Metrics only
// one run reports are kept as-is.
func mergeMin(acc, next map[string]float64) {
	for k, v := range next {
		if old, ok := acc[k]; !ok || v < old {
			acc[k] = v
		}
	}
}

// assertion is one parsed `-assert` constraint:
// left <= factor * right, where each side is a <bench>:<metric> pair
// (colon-separated, since benchmark names themselves contain slashes).
type assertion struct {
	leftBench, leftMetric   string
	factor                  float64
	rightBench, rightMetric string
}

func parseAssertion(s string) (assertion, error) {
	var a assertion
	lhs, rhs, ok := strings.Cut(s, "<=")
	if !ok {
		return a, fmt.Errorf("assertion %q: missing \"<=\"", s)
	}
	factorStr, ref, ok := strings.Cut(rhs, "*")
	if !ok {
		return a, fmt.Errorf("assertion %q: right side must be <factor>*<bench>:<metric>", s)
	}
	factor, err := strconv.ParseFloat(strings.TrimSpace(factorStr), 64)
	if err != nil {
		return a, fmt.Errorf("assertion %q: bad factor: %v", s, err)
	}
	cut := func(side string) (string, string, error) {
		b, m, ok := strings.Cut(strings.TrimSpace(side), ":")
		if !ok || b == "" || m == "" {
			return "", "", fmt.Errorf("assertion %q: %q is not <bench>:<metric>", s, side)
		}
		return b, m, nil
	}
	if a.leftBench, a.leftMetric, err = cut(lhs); err != nil {
		return a, err
	}
	if a.rightBench, a.rightMetric, err = cut(ref); err != nil {
		return a, err
	}
	a.factor = factor
	return a, nil
}

// check evaluates the assertion against parsed results; a missing
// benchmark or metric is itself a failure so a renamed benchmark can't
// silently disarm the gate.
func (a assertion) check(parsed map[string]map[string]float64) error {
	lookup := func(bench, metric string) (float64, error) {
		m, ok := parsed[bench]
		if !ok {
			return 0, fmt.Errorf("benchmark %q not in input", bench)
		}
		v, ok := m[metric]
		if !ok {
			return 0, fmt.Errorf("benchmark %q has no metric %q", bench, metric)
		}
		return v, nil
	}
	left, err := lookup(a.leftBench, a.leftMetric)
	if err != nil {
		return err
	}
	right, err := lookup(a.rightBench, a.rightMetric)
	if err != nil {
		return err
	}
	// `left > limit` is false for NaN, so a poisoned metric (0/0 in a
	// ReportMetric, a corrupted line) would sail through the gate; an
	// infinite limit likewise compares as "within budget". Any
	// non-finite operand fails the assertion outright.
	if limit := a.factor * right; math.IsNaN(left) || math.IsInf(left, 0) ||
		math.IsNaN(limit) || math.IsInf(limit, 0) {
		return fmt.Errorf("%s:%s = %g vs limit %g*%s:%s = %g: non-finite values cannot satisfy an assertion",
			a.leftBench, a.leftMetric, left, a.factor, a.rightBench, a.rightMetric, limit)
	} else if left > limit {
		return fmt.Errorf("%s:%s = %g exceeds %g*%s:%s = %g (ratio %.4f)",
			a.leftBench, a.leftMetric, left, a.factor, a.rightBench, a.rightMetric,
			limit, left/right)
	}
	return nil
}

// repeatFlag collects every occurrence of a repeatable string flag.
type repeatFlag []string

func (r *repeatFlag) String() string { return strings.Join(*r, ",") }

func (r *repeatFlag) Set(s string) error {
	*r = append(*r, s)
	return nil
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("o", "", "output file (default stdout)")
	var asserts repeatFlag
	fs.Var(&asserts, "assert", "perf constraint <bench>:<metric><=<factor>*<bench>:<metric> (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	checks := make([]assertion, len(asserts))
	for i, s := range asserts {
		a, err := parseAssertion(s)
		if err != nil {
			return err
		}
		checks[i] = a
	}
	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	parsed, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(parsed) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines found")
	}
	for _, a := range checks {
		if err := a.check(parsed); err != nil {
			return fmt.Errorf("benchjson: assertion failed: %v", err)
		}
	}
	// Deterministic output: _meta first, then sorted benchmark keys via
	// an ordered re-marshal.
	names := make([]string, 0, len(parsed))
	for name := range parsed {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	meta, err := json.Marshal(hostMeta())
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "  %q: %s,\n", "_meta", meta)
	for i, name := range names {
		enc, err := json.Marshal(parsed[name])
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "  %q: %s", name, enc)
		if i < len(names)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	if *outPath != "" {
		return os.WriteFile(*outPath, []byte(b.String()), 0o644)
	}
	_, err = io.WriteString(stdout, b.String())
	return err
}

// hostMeta describes the machine the benchmarks ran on. The hostname is
// hashed: enough to tell two hosts' numbers apart in committed files
// without leaking machine names.
func hostMeta() map[string]any {
	h := fnv.New64a()
	if name, err := os.Hostname(); err == nil {
		h.Write([]byte(name))
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"goversion":  runtime.Version(),
		"host":       fmt.Sprintf("%016x", h.Sum64()),
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
