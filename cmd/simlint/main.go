// Command simlint statically enforces the simulator's determinism and
// alloc-free invariants over this repository: order-dependent map
// iteration (maprange), wall-clock time and global math/rand
// (walltime), concurrency in the single-threaded core (noconcurrency),
// allocation sources in //simlint:hotpath functions (hotpath) and in
// functions transitively reachable from them (hotcall), discarded
// errors (errdrop), pool get/put pairing (poolleak), exactly-once
// completion callbacks (oncedone), and exported names that no non-test
// code references, in the module or in bench/ (unused; on ./... only).
// See internal/lint for the analyzers and the //simlint:allow
// suppression grammar.
//
// Usage, from the module root:
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint -escapes ./...
//	go run ./cmd/simlint -json ./...
//
// The default mode runs the AST suite. -escapes instead compiles the
// packages with -gcflags=-m and cross-checks the compiler's escape
// analysis against the AST hotpath verdicts (the escapecheck
// analyzer): heap allocations in hotpath-reachable functions that the
// AST suite did not see. Both modes share one loaded snapshot per
// invocation.
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
	escapes := flag.Bool("escapes", false, "cross-check compiler escape analysis (-gcflags=-m) against hotpath verdicts")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simlint [-C dir] [-escapes] [-json] [packages]\n")
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
	var diags []lint.Diagnostic
	if *escapes {
		diags, err = lint.Escapes(snap, patterns...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
	} else {
		diags = snap.Run(lint.Analyzers())
	}

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
