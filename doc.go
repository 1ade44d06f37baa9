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
// Package map, bottom up:
//
//	internal/sim          allocation-free event engine (hierarchical timer
//	                      wheel + far heap, pooled generation-counted
//	                      events, reusable Timers), pipes, token pools
//	                      with ring-buffered waiters, RNG, tallies
//	internal/nand         raw NAND cards: buses, chips, blocks, pages;
//	                      deterministic wear-scaled bit-error injection
//	                      and whole-card failure (Fail/Replace)
//	internal/ecc          SEC-DED Hamming codes over every page,
//	                      allocation-free in-place decode
//	internal/flashctl     tagged flash controller (paper §3.1.1)
//	internal/flashserver  flash server: in-order interfaces, ATU (§3.1.2)
//	internal/fabric       integrated storage network (§3.2)
//	internal/hostif       PCIe host interface: DMA, RPC, interrupts (§3.3)
//	internal/hostmodel    host Xeon: cores, threads, DRAM bandwidth
//	internal/core         the assembled appliance: nodes, global address
//	                      space, Fig. 12 access paths, batched submission
//	internal/sched        multi-tenant QoS request scheduler: admission,
//	                      batching, coalescing; Accel class + token budget
//	                      for in-store processor reads, Background class +
//	                      GC token budget for FTL housekeeping
//	internal/ftl          page-mapped FTL: mapping, GC, wear leveling
//	internal/volume       cluster-wide logical volume over per-card FTLs;
//	                      physical-address queries (Locate/PhysMap);
//	                      optional cross-node mirroring: degraded-read
//	                      failover, Background-class rebuild reusing the
//	                      GC urgency-token machinery
//	internal/cache        per-node host-DRAM write-back page cache above
//	                      the volume: CLOCK eviction over dense alloc-free
//	                      state, hits charged to hostmodel DRAM bandwidth,
//	                      dirty flush on Background with urgency feedback,
//	                      cross-node invalidation over the fabric
//	                      (invalidate-on-flash-visibility, last flusher
//	                      wins), cold-page demotion to altstore devices
//	                      with promotion on re-reference
//	internal/rfs          RFS-style flash file system (§4): FS core generic
//	                      over a Backend — per-card (flashserver iface) or
//	                      cluster-wide (log striped over every chip of every
//	                      node, I/O admitted through sched at the handle's
//	                      class, cleaning on Background) — with cluster-wide
//	                      physical-address queries (Figure 8 step 1)
//	internal/blockfs      conventional file system over a block Device
//	                      (per-card FTL or a volume stream)
//	internal/altstore     comparator devices (SSD/HDD models)
//	internal/isp          in-store processor framework + FIFO unit scheduler
//	internal/accel/...    the accelerators: lsh, graph, search, tablescan,
//	                      mapreduce, spmv
//	internal/ispvol       distributed in-store processing over
//	                      volume+sched+fabric: per-node engines admitted at
//	                      the Accel class, one query executor over source
//	                      (volume Range or cluster-RFS File, Figure 8) ×
//	                      kernel (Search, TableScan, NearestNeighbor) ×
//	                      placement (InStore or HostMediated), and
//	                      in-store graph traversal with walker migration
//	                      (WalkMigrate: state moves to the data over the
//	                      fabric instead of pages moving to a home node)
//	internal/workload     deterministic generators, the stack builder and
//	                      the traffic drivers
//	internal/experiments  the experiment table: the paper's tables and
//	                      figures + the sched/gc/isp/fs/apps/fault/
//	                      cache/engine experiments, one record each
//	internal/report       observability
//	internal/fpga         FPGA resource models (Tables 1-2)
//	internal/power        node power model (Table 3)
//	internal/lint         simlint: static analyzers enforcing the
//	                      determinism and alloc-free invariants
//	                      (maprange, forbidden, hotpath, errdrop,
//	                      obligation, unused, and escapecheck under
//	                      -escapes); cmd/simlint is the CI driver
//
// Start with examples/quickstart, then see README.md for the system
// inventory (its package map and one section per subsystem).
// BenchmarkEvaluation in bench_test.go regenerates every table and
// figure of the paper's evaluation from the experiment table;
// cmd/bluedbm-bench does the same from the command line, including the beyond-the-paper experiments (-run
// engine, -run sched, -run gc, -run isp, -run fs, -run apps, -run
// fault, -run cache) whose committed artifacts are BENCH_ENGINE.json,
// BENCH_SCHED.json, BENCH_GC.json, BENCH_ISP.json, BENCH_FS.json,
// BENCH_APPS.json, BENCH_FAULT.json and BENCH_CACHE.json.
// Profiling flags (-cpuprofile, -memprofile, -trace) work with every
// experiment.
package repro
