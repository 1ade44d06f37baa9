// Command simlint statically enforces the simulator's determinism
// invariant and the rules around it over this repository:
// order-dependent map iteration (maprange), the host clock, global
// math/rand and concurrency in the single-threaded core (forbidden),
// discarded errors (errdrop), exported names that no non-test code
// references, in the module or in bench/ (unused; on ./... only), and
// float products arm64 may fuse (floatfuse). Allocation-free hot paths
// are held by the exact allocation pins in the packages' tests, and
// pooled records and completion callbacks discharged exactly once by
// the pools' drain checks and the tests, not here.
// See internal/lint for the analyzers and the //simlint:allow
// suppression grammar.
//
// Usage, from the module root:
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint -json ./...
//
// Findings print one per line as file:line:col: check: message (or as
// a JSON array with -json), and a non-empty finding set exits 1 — CI
// treats every finding class as a build break. The tool is
// self-contained on the standard library (no golang.org/x/tools
// vettool protocol): it loads, parses and type-checks the packages
// itself via the go toolchain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	root := flag.String("C", ".", "module root directory to lint from")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simlint [-C dir] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	snap, err := lint.LoadSnapshot(*root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	diags := snap.Run(lint.Analyzers())

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
