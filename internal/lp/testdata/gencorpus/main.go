// Command gencorpus records the golden LP corpus that
// internal/lp/golden_test.go replays:
//
//	go run ./internal/lp/testdata/gencorpus > internal/lp/testdata/golden.lpc.gz
//
// The corpus pins the outcome of a trusted solver, so it is recorded
// before a solver change and never regenerated to make a change pass.
package main

import (
	"fmt"
	"os"

	"maxminlp/internal/lp/lpcorpus"
)

func main() {
	recs, err := lpcorpus.Generate()
	if err == nil {
		err = lpcorpus.Write(os.Stdout, recs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gencorpus:", err)
		os.Exit(1)
	}
}
