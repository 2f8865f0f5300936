// Command mmlp is the command-line front end of the library: it
// generates, inspects and solves max-min LP instances, measures the
// relative growth γ(r) of their communication hypergraphs, runs the
// distributed engines, and drives the Theorem-1 lower-bound
// construction.
//
// Usage:
//
//	mmlp gen        -kind torus -dims 16x16 > instance.txt
//	mmlp stats      instance.txt
//	mmlp solve      -alg optimal|safe|average [-radius R] instance.txt
//	mmlp simulate   -proto average -engine sharded -shards 4 instance.txt
//	mmlp gamma      -maxr 6 instance.txt
//	mmlp lowerbound -dvi 3 -dvk 2
//	mmlp convert    -to json instance.txt
//	mmlp lp-export  instance.txt > instance.mps
//	mmlp lp-export  -agent 12 -radius 2 -presolve instance.txt
//	mmlp mps-import -to text instance.mps
//
// Instances are read from the file argument or stdin ("-") in the text
// format of the mmlp package (see `mmlp gen` output).
//
// Exit status is 0 on success, 1 for runtime errors (unreadable or
// malformed input, solver failures) and 2 for usage errors (unknown
// command, bad flags). Errors go to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

type command struct {
	name    string
	summary string
	run     func(args []string) error
}

var commands = []command{
	{"gen", "generate an instance (torus, grid, random, sensornet, isp)", cmdGen},
	{"stats", "print instance statistics and degree bounds", cmdStats},
	{"solve", "solve an instance with optimal, safe or average", cmdSolve},
	{"simulate", "run a protocol on a distributed engine (partitioned, sequential, sharded, stabilizing)", cmdSimulate},
	{"gamma", "print the relative growth profile γ(r)", cmdGamma},
	{"lowerbound", "build and verify the Theorem-1 construction", cmdLowerBound},
	{"figure2", "print Figure 2 (Theorem-3 set definitions) on an instance", cmdFigure2},
	{"verify", "check a solution file against an instance (feasibility + ω)", cmdVerify},
	{"convert", "convert between the text and JSON formats", cmdConvert},
	{"lp-export", "export the instance (or one agent's ball LP) as MPS", cmdLPExport},
	{"mps-import", "read an instance-shaped MPS file back into the text/JSON formats", cmdMPSImport},
}

// usageError marks an error as caller misuse; run exits 2 for it instead
// of 1. Flag-parsing failures are wrapped in it by parseFlags.
type usageError struct{ error }

// parseFlags parses a command's flag set, classifying failures as usage
// errors. flag.ErrHelp (-h / -help) is passed through so run can exit 0
// after the flag package has printed the defaults.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run dispatches to a subcommand and returns the process exit code. It
// exists apart from main so tests can assert exit codes and stderr
// output without spawning a process.
func run(args []string, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	name := args[0]
	for _, c := range commands {
		if c.name != name {
			continue
		}
		err := c.run(args[1:])
		switch {
		case err == nil:
			return 0
		case errors.Is(err, flag.ErrHelp):
			return 0
		default:
			fmt.Fprintf(stderr, "mmlp %s: %v\n", name, err)
			var ue usageError
			if errors.As(err, &ue) {
				return 2
			}
			return 1
		}
	}
	fmt.Fprintf(stderr, "mmlp: unknown command %q\n\n", name)
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: mmlp <command> [flags] [instance-file|-]")
	fmt.Fprintln(w, "commands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-11s %s\n", c.name, c.summary)
	}
}
