// Package repro is a full reproduction of "BlueDBM: An Appliance for
// Big Data Analytics" (Jun et al., ISCA 2015) as a Go library: a
// deterministic discrete-event simulation of the hardware substrate
// (raw NAND flash, the tag-based flash controller with real SEC-DED
// ECC, the integrated storage network with token flow control and
// deterministic per-endpoint routing, the PCIe host interface) plus
// real implementations of the software stack (page-mapped FTL,
// RFS-style flash file system) and the in-store accelerators (LSH
// nearest-neighbor, distributed graph traversal, Morris-Pratt string
// search, predicate-pushdown table scan).
//
// Start with examples/quickstart, then README.md: its package map names
// every package under internal/ and cmd/ (readme_test.go holds it to
// SIZES.txt), and one section per layer, bottom up, describes each.
// BenchmarkEvaluation in bench_test.go regenerates every table and
// figure of the paper's evaluation from the experiment table;
// cmd/bluedbm-bench does the same from the command line, including the
// beyond-the-paper experiments whose committed artifacts are the
// BENCH_*.json files at the repository root.
package repro
