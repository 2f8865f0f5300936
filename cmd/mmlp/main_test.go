package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maxminlp/internal/dist"
)

// silence runs fn with os.Stdout discarded, returning fn's error; used
// for asserting error paths without leaking output into the test log.
func silence(t *testing.T, fn func() error) error {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()
	return fn()
}

// capture runs fn with os.Stdout redirected to a buffer.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if errRun != nil {
		t.Fatalf("command failed: %v\noutput so far:\n%s", errRun, out)
	}
	return out
}

// genInstanceFile writes a generated instance to a temp file and returns
// its path.
func genInstanceFile(t *testing.T, genArgs ...string) string {
	t.Helper()
	out := capture(t, func() error { return cmdGen(genArgs) })
	path := filepath.Join(t.TempDir(), "instance.txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGenAndStats(t *testing.T) {
	path := genInstanceFile(t, "-kind", "torus", "-dims", "4x4")
	out := capture(t, func() error { return cmdStats([]string{path}) })
	for _, want := range []string{"agents=16", "resources=16", "parties=16", "hypergraph:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestGenKinds(t *testing.T) {
	for _, kind := range []string{"torus", "grid", "random", "sensornet", "isp", "safetight"} {
		out := capture(t, func() error {
			return cmdGen([]string{"-kind", kind, "-dims", "3x3", "-agents", "12"})
		})
		if !strings.HasPrefix(out, "mmlp ") {
			t.Fatalf("kind %s: output does not start with header:\n%s", kind, out)
		}
	}
}

func TestGenRejectsUnknownKind(t *testing.T) {
	if err := cmdGen([]string{"-kind", "bogus"}); err == nil {
		t.Fatal("want error for unknown kind")
	}
}

func TestSolveAllAlgorithms(t *testing.T) {
	path := genInstanceFile(t, "-kind", "torus", "-dims", "4x4")
	for _, alg := range []string{"optimal", "safe", "average"} {
		out := capture(t, func() error {
			return cmdSolve([]string{"-alg", alg, "-radius", "1", path})
		})
		if !strings.Contains(out, "ω") {
			t.Fatalf("alg %s output missing ω:\n%s", alg, out)
		}
	}
	out := capture(t, func() error { return cmdSolve([]string{"-alg", "safe", "-x", path}) })
	if !strings.Contains(out, "x[0]") {
		t.Fatalf("missing activity vector:\n%s", out)
	}
	if err := cmdSolve([]string{"-alg", "bogus", path}); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
}

func TestGamma(t *testing.T) {
	path := genInstanceFile(t, "-kind", "torus", "-dims", "8")
	out := capture(t, func() error { return cmdGamma([]string{"-maxr", "3", path}) })
	for _, want := range []string{"γ(0)", "γ(3)", "Theorem 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gamma output missing %q:\n%s", want, out)
		}
	}
}

func TestLowerBoundCommand(t *testing.T) {
	out := capture(t, func() error {
		return cmdLowerBound([]string{"-dvi", "3", "-dvk", "2"})
	})
	for _, want := range []string{"checks: ok=true", "theorem bound 1.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("lowerbound output missing %q:\n%s", want, out)
		}
	}
}

func TestConvertRoundTrip(t *testing.T) {
	path := genInstanceFile(t, "-kind", "random", "-agents", "10")
	jsonOut := capture(t, func() error { return cmdConvert([]string{"-to", "json", path}) })
	if !strings.Contains(jsonOut, "\"agents\"") {
		t.Fatalf("json output malformed:\n%s", jsonOut)
	}
	textOut := capture(t, func() error { return cmdConvert([]string{"-to", "text", path}) })
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if textOut != string(original) {
		t.Fatal("text round trip changed the instance")
	}
	if err := cmdConvert([]string{"-to", "bogus", path}); err == nil {
		t.Fatal("want error for unknown format")
	}
}

func TestParseDims(t *testing.T) {
	if dims, err := parseDims("16x16"); err != nil || len(dims) != 2 || dims[0] != 16 {
		t.Fatalf("parseDims(16x16) = %v, %v", dims, err)
	}
	if dims, err := parseDims("64"); err != nil || len(dims) != 1 || dims[0] != 64 {
		t.Fatalf("parseDims(64) = %v, %v", dims, err)
	}
	for _, bad := range []string{"", "ax3", "0x4", "-2"} {
		if _, err := parseDims(bad); err == nil {
			t.Fatalf("parseDims(%q) should fail", bad)
		}
	}
}

func TestReadInstanceErrors(t *testing.T) {
	if _, err := readInstance([]string{"a", "b"}); err == nil {
		t.Fatal("two files must fail")
	}
	if _, err := readInstance([]string{filepath.Join(t.TempDir(), "missing.txt")}); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestLowerBoundRender(t *testing.T) {
	out := capture(t, func() error {
		return cmdLowerBound([]string{"-dvi", "3", "-dvk", "2", "-render"})
	})
	for _, want := range []string{"Figure 1", "type III hyperedges", "witness x̂"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q", want)
		}
	}
}

func TestFigure2Command(t *testing.T) {
	path := genInstanceFile(t, "-kind", "torus", "-dims", "5x5")
	out := capture(t, func() error {
		return cmdFigure2([]string{"-u", "3", "-k", "3", "-i", "3", "-radius", "1", path})
	})
	for _, want := range []string{"Figure 2", "V^u", "S_k", "U_i"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure2 output missing %q", want)
		}
	}
	if err := cmdFigure2([]string{"-u", "999", path}); err == nil {
		t.Fatal("out-of-range agent must fail")
	}
}

func TestVerifyCommand(t *testing.T) {
	path := genInstanceFile(t, "-kind", "torus", "-dims", "4x4")
	// A feasible solution: all zeros.
	solPath := filepath.Join(t.TempDir(), "sol.txt")
	zeros := strings.Repeat("0\n", 16)
	if err := os.WriteFile(solPath, []byte(zeros), 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() error { return cmdVerify([]string{"-sol", solPath, path}) })
	if !strings.Contains(out, "feasible: yes") {
		t.Fatalf("verify output:\n%s", out)
	}
	// An infeasible solution must fail.
	big := strings.Repeat("9\n", 16)
	if err := os.WriteFile(solPath, []byte(big), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := silence(t, func() error { return cmdVerify([]string{"-sol", solPath, path}) }); err == nil {
		t.Fatal("infeasible solution must fail")
	}
	// Wrong arity must fail.
	if err := os.WriteFile(solPath, []byte("0 0"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-sol", solPath, path}); err == nil {
		t.Fatal("wrong-arity solution must fail")
	}
	// Missing -sol must fail.
	if err := cmdVerify([]string{path}); err == nil {
		t.Fatal("missing -sol must fail")
	}
}

func TestSolveExtraAlgorithms(t *testing.T) {
	path := genInstanceFile(t, "-kind", "torus", "-dims", "4x4")
	out := capture(t, func() error {
		return cmdSolve([]string{"-alg", "adaptive", "-target", "3", path})
	})
	if !strings.Contains(out, "ω") {
		t.Fatalf("alg adaptive output missing ω:\n%s", out)
	}
}

// TestRunExitCodes pins the process exit-code contract: 0 on success,
// 1 for runtime errors, 2 for usage errors, with diagnostics on stderr.
func TestRunExitCodes(t *testing.T) {
	path := genInstanceFile(t, "-kind", "torus", "-dims", "3x3")
	cases := []struct {
		name string
		args []string
		want int
		msg  string // required substring of stderr
	}{
		{"no args", nil, 2, "usage:"},
		{"unknown command", []string{"bogus"}, 2, "unknown command"},
		{"bad flag", []string{"solve", "-nosuchflag", path}, 2, "mmlp solve:"},
		{"bad flag value", []string{"gamma", "-maxr", "x", path}, 2, "mmlp gamma:"},
		{"missing file", []string{"stats", "no-such-file.txt"}, 1, "mmlp stats:"},
		{"unknown algorithm", []string{"solve", "-alg", "bogus", path}, 1, "unknown algorithm"},
		{"unknown kind", []string{"gen", "-kind", "bogus"}, 1, "unknown kind"},
		{"help", []string{"solve", "-h"}, 0, ""},
		{"success", []string{"stats", path}, 0, ""},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			var stderr bytes.Buffer
			var got int
			capture(t, func() error {
				got = run(cse.args, &stderr)
				return nil
			})
			if got != cse.want {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", cse.args, got, cse.want, stderr.String())
			}
			if cse.msg != "" && !strings.Contains(stderr.String(), cse.msg) {
				t.Fatalf("stderr missing %q:\n%s", cse.msg, stderr.String())
			}
		})
	}
}

// TestSimulateCommand runs every engine dist.Engines lists over both
// protocols and checks that the reported trace lines agree across
// engines: the whole line for engines with exact cost accounting, the ω
// for the rest.
func TestSimulateCommand(t *testing.T) {
	path := genInstanceFile(t, "-kind", "torus", "-dims", "4x4")
	for _, proto := range []string{"safe", "average"} {
		var ref string
		for _, engine := range dist.Engines() {
			out := capture(t, func() error {
				return cmdSimulate([]string{"-proto", proto, "-engine", engine, "-shards", "3", path})
			})
			if !strings.Contains(out, "ω") || !strings.Contains(out, "rounds") {
				t.Fatalf("%s/%s output malformed:\n%s", proto, engine, out)
			}
			eng, err := dist.New(engine, dist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Strip the engine name: everything after the colon must match.
			line := out[strings.Index(out, ":"):]
			omega := func(s string) string { return s[strings.Index(s, "ω"):] }
			switch {
			case !eng.CostExact():
				if ref != "" && omega(line) != omega(ref) {
					t.Fatalf("%s: %s ω disagrees with the reference:\n%s\n%s", proto, engine, line, ref)
				}
			case ref == "":
				ref = line
			case line != ref:
				t.Fatalf("%s: %s disagrees with the reference:\n%s\n%s", proto, engine, line, ref)
			}
		}
	}
	if err := cmdSimulate([]string{"-proto", "bogus", path}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if err := cmdSimulate([]string{"-engine", "bogus", path}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestLPExportImportRoundTrip(t *testing.T) {
	path := genInstanceFile(t, "-kind", "torus", "-dims", "4x4", "-weights", "-seed", "3")
	mps := capture(t, func() error { return cmdLPExport([]string{path}) })
	if !strings.Contains(mps, "OBJSENSE") || !strings.Contains(mps, "OMEGA") {
		t.Fatalf("unexpected MPS output:\n%s", mps)
	}
	mpsPath := filepath.Join(t.TempDir(), "instance.mps")
	if err := os.WriteFile(mpsPath, []byte(mps), 0o644); err != nil {
		t.Fatal(err)
	}
	text := capture(t, func() error { return cmdMPSImport([]string{"-to", "text", mpsPath}) })
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(orig) {
		t.Fatalf("mps-import text differs from the original instance:\n%s", text)
	}
	out := capture(t, func() error { return cmdMPSImport([]string{"-to", "json", mpsPath}) })
	if !strings.Contains(out, "\"") {
		t.Fatalf("json output: %q", out)
	}
}

func TestLPExportBall(t *testing.T) {
	path := genInstanceFile(t, "-kind", "grid", "-dims", "8x8", "-seed", "1")
	plain := capture(t, func() error { return cmdLPExport([]string{"-agent", "0", "-radius", "1", path}) })
	if !strings.Contains(plain, "BALL_A0_R1") || !strings.Contains(plain, "OMEGA") {
		t.Fatalf("ball export:\n%s", plain)
	}
	reduced := capture(t, func() error {
		return cmdLPExport([]string{"-agent", "0", "-radius", "1", "-presolve", path})
	})
	if len(reduced) >= len(plain) {
		t.Fatalf("presolve did not shrink the unit-weight corner ball export (%d vs %d bytes)", len(reduced), len(plain))
	}
	if err := silence(t, func() error {
		return cmdLPExport([]string{"-agent", "999", path})
	}); err == nil {
		t.Fatal("out-of-range agent accepted")
	}
	if err := silence(t, func() error {
		return cmdLPExport([]string{"-presolve", path})
	}); err == nil {
		t.Fatal("-presolve without -agent accepted")
	}
}
