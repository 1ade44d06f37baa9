package lint

import "strings"

// Package scope rules. Each analyzer guards the part of the tree whose
// invariant it enforces; everything is keyed on the module-relative
// import path so the rules survive a module rename.
//
//   - The deterministic core is every internal/ package that executes
//     under the event engine. Concurrency, wall-clock time and map
//     iteration order there are bugs by definition.
//   - internal/experiments is the harness side: it measures host
//     wall-clock around whole runs (the numbers it computes from
//     *inside* the simulation still go through sim.Engine), and so do
//     the cmd/ front ends, outside internal/ altogether.
//   - internal/lint is this tool; it does not run under the engine.

// inInternal reports whether the package is repo-internal simulation
// or stack code (any internal/ package except the lint tool itself).
func inInternal(rel string) bool {
	return strings.HasPrefix(rel, "internal/") && !inLint(rel)
}

func inLint(rel string) bool {
	return rel == "internal/lint" || strings.HasPrefix(rel, "internal/lint/")
}

// inDeterministicCore reports whether the package is part of the
// single-threaded simulation core, where every run must replay the
// exact same event sequence: every internal/ package but lint and the
// harness, internal/experiments, which drives runs and measures wall
// time.
func inDeterministicCore(rel string) bool {
	return inInternal(rel) && rel != "internal/experiments" && !strings.HasPrefix(rel, "internal/experiments/")
}
