// Package lint is simlint: a static-analysis suite that enforces
// bit-exact determinism, one of the two invariants every committed
// BENCH artifact rests on, and the ownership and hygiene rules around
// it, at build time instead of debugging time. The other invariant,
// allocation-free hot paths, is held by the exact allocation pins in
// the packages' tests (alloctest.Mallocs), not here.
//
// The simulator's reproducibility argument is only as strong as its
// weakest `for k := range someMap` or stray time.Now(): either one
// silently breaks identical event order across runs, and the failure
// shows up weeks later as a golden-digest mismatch nobody can bisect.
// The analyzers here turn each such class into a build break:
//
//	maprange     order-dependent iteration over Go maps in the
//	             deterministic core (map iteration order is randomized
//	             per run)
//	forbidden    one table of banned package functions and syntax kinds
//	             over the deterministic core: the host clock, the global
//	             math/rand stream, sync, go statements and channels
//	errdrop      discarded error results in internal/
//	unused       exported names that no non-test code references, in
//	             the module or in a module nested under it (bench/)
//	floatfuse    a float product added or subtracted without a
//	             rounding conversion, which arm64 may fuse into one
//	             multiply-add, in every package, linked or not
//
// Real bugs caught: maprange found the rfs invariant check walking
// back-references in map order, so its first error changed from run to
// run; hotpath, a static allocation walk over the hot call graph since
// replaced by the exact allocation pins, found volume.mirrorWrite's two
// closures and one struct per mirrored write and hostmodel.Thread's
// closure per work item; errdrop found the hostif DeviceWriteChunk and
// ReleaseReadBuffer errors dropped at all 16 production call sites;
// unused found 41 dead exported names on its first run.
//
// What each check catches is measured by planted bugs: each one
// below was planted alone in a copy of the tree, then `go run
// ./cmd/simlint ./...` and every tier-1 test outside internal/lint were
// run. The plant's class is the check meant to catch it (walltime and
// noconcurrency are the two checks since folded into forbidden;
// poolleak and oncedone, folded into obligation, and hotpath and
// escapecheck are since deleted: the pools' drain checks and the tests
// hold the first two's invariant, the exact allocation pins the last
// two's); "static" names what simlint reported and "tier-1" the
// packages whose tests failed (artifacts and figures are
// cmd/bluedbm-bench's artifact regeneration and paper-figure tests,
// goldens the root's TestOutputGoldens; TestPackageSizes, which only
// sees that a line was added, is left out). The seven allocation
// plants, H1–H3, N3 and X1–X3, were planted again in the tree without
// hotpath and escapecheck, and the twelve pool and callback plants,
// P1–P7 and O1–O5, in the tree without obligation, so their rows are
// what those trees catch:
//
//	plant  class          bug                                       static       tier-1
//	P1     poolleak       sched backpressure path drops reqs.Put    —            sched, volume
//	P2     poolleak       fabric non-last local segment drops       —            fabric, ispvol
//	                      segs.Put
//	P3     poolleak       reclaim.Log.Write gets its op before the  —            ftl, rfs
//	                      size check
//	P4     poolleak       cache fill that does not install drops    —            cache, workload
//	                      fillPool.Put
//	P5     poolleak       sched completion puts the request twice   —            sched, cache, rfs,
//	                      (it arrives as a parameter)                            volume, ispvol,
//	                                                                             workload, lsh,
//	                                                                             search, experiments,
//	                                                                             artifacts, goldens
//	P6     poolleak       core.remoteReq send-error path drops      —            core
//	                      remoteOps.Put
//	P7     poolleak       SubmitHostBatch gets a batch before the   —            core
//	                      empty check
//	O1     oncedone       ispvol query with a bad origin returns    —            ispvol
//	                      without fin
//	O2     oncedone       Search with an empty needle returns       —            ispvol
//	                      without done
//	O3     oncedone       graph.TraverseAsync with Steps<=0 calls   —            graph
//	                      done and falls through
//	O4     oncedone       ispvol resolve error returns without fin  —            ispvol
//	O5     oncedone       altstore.HDD calls done twice inside its  —            altstore, search,
//	                      closure                                                experiments, figures,
//	                                                                             goldens
//	M1     maprange       rfs FS.List returns names in map order    maprange     rfs
//	M2     maprange       cache eviction takes the first clean      maprange     cache, experiments,
//	                      frame the lpn map yields                               artifacts
//	M3     maprange       sched drain check reports the first       maprange     —
//	                      pending read in map order
//	M4     maprange       lsh.NearestBrute drops its tie-break      —            —
//	                      under an audited allow
//	W1     walltime       nand wear-out draws from global rand      forbidden    —
//	W2     walltime       workload picker draws its lpn from        forbidden    workload, experiments,
//	                      global rand                                            artifacts
//	W3     walltime       host thread cost jittered by time.Now     forbidden    hostmodel, sched,
//	                                                                             workload, volume,
//	                                                                             experiments,
//	                                                                             artifacts
//	N1     noconcurrency  ispvol fans a query out on a goroutine    forbidden    ispvol, artifacts
//	N2     noconcurrency  engine counts fired events with           forbidden    —
//	                      sync/atomic
//	N3     noconcurrency  host thread pushes each work item from a  forbidden    sched, core, cache,
//	                      goroutine and waits on a channel                       rfs, volume
//	H1     hotpath        reclaim.Log.Write admits a closure per    —            ftl, rfs
//	                      write
//	H2     hotpath        sched makes a fresh slice per doorbell    —            sched, volume, cache,
//	                                                                             rfs
//	H3     hotpath        fabric transmit passes a closure per      —            fabric, core, cache
//	                      segment
//	E1     errdrop        flashserver drops WriteImage's error      errdrop      —
//	E2     errdrop        ispvol deliver drops a send error         errdrop      —
//	E3     errdrop        cache drops an invalidation send error    errdrop      —
//	U1     unused         ispvol's test-only Units probe moves      unused       —
//	                      out of export_test.go
//	U2     unused         a new engine accessor nothing calls       unused       —
//	U3     unused         volume.PhysMap's one caller resolves      unused       —
//	                      page by page instead
//	X1     escapecheck    sched kick schedules a method value       —            sched, cache, rfs,
//	                                                                             ispvol, volume
//	X2     escapecheck    sched builds each doorbell in a stack     —            sched, volume, cache,
//	                      array it then keeps                                    rfs
//	X3     escapecheck    sched backpressure returns errors.New     —            sched, volume
//	                      instead of the sentinel
//	F1     floatfuse      power.Budget.Total adds an unconverted    floatfuse    —
//	                      product (amd64 never fuses it; CI's arm64
//	                      disassembly step sees it where Total is
//	                      inlined)
//
// Of the 35 plants, 16 are caught statically and 24 by tier-1 tests:
// 6 by both, 10 only by simlint (M3, W1, N2, E1–E3, U1–U3, F1), 18
// only by tests (P1–P7, O1–O5, H1–H3, X1–X3) and 1 by neither (M4).
// Every check here catches a plant no tier-1 test catches. obligation
// did not: of its five, P3, O1, O2 and O4 fail tier-1 tests too, and
// P7, the one only it caught, fails core's TestEmptyHostBatch, as P6,
// which it missed, fails TestReadOfANodeOutsideTheCluster (both end in
// the drain check). So every pooled record and completion callback is
// held dynamically: each sim.Pool's Drained check, which
// core.Cluster.Check runs, and a test per refusal branch.
// hotpath and escapecheck caught none the tests missed: every one of
// their plants fails tier-1 tests (allocation pins, except for X3,
// whose fresh error the Retrier no longer takes for backpressure), and
// H1 was only ever caught by them. So the allocation pins are the one
// guard of allocation-free hot paths. With every pin an exact
// alloctest.Mallocs window, H1–H3 were planted once more, each alone,
// and only the pins run: each row's tier-1 column is exactly the
// packages whose exact pins fail (H3: fabric's three, core's remote
// and host reads, cache's invalidation broadcast).
//
// A true finding is fixed; an intended exception is suppressed with an
// audited comment on the offending line or the line above — directives
// stack, so a line that trips several checks takes one directive per
// check on consecutive lines above it:
//
//	//simlint:allow <check> (reason)
//
// The reason is mandatory, unknown check names are errors, and a
// suppression that suppresses nothing is itself a finding — so the
// committed suppression set stays an honest list of reviewed
// exceptions, never a graveyard. So is a //simlint: marker other than
// allow.
//
// The framework is deliberately self-contained on the standard
// library's go/ast and go/types (the usual golang.org/x/tools
// go/analysis machinery is not vendored here); cmd/simlint is the
// driver, and Snapshot.Run in this package is the entry point the
// repo's own tests use to keep `go test ./...` as strict as CI.
//
// The module is loaded and type-checked exactly once per run: a
// Snapshot carries the loaded packages, and every analyzer —
// per-package or module-wide — runs over that one snapshot. Every load
// of a process shares one file set and one source importer for the
// standard library, which is type-checked once.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"unicode"
)

// An Analyzer is one named check. Exactly one of Run and RunModule is
// set: Run inspects a single type-checked package via its Pass, while
// RunModule sees the whole loaded snapshot at once (for analyses that
// need every package's references, such as unused).
type Analyzer struct {
	// Name identifies the check in output and in //simlint:allow
	// directives.
	Name string
	// Doc is a one-line description of what the check enforces.
	Doc string
	// Run performs the check on one package.
	Run func(p *Pass)
	// RunModule performs the check over the whole snapshot.
	RunModule func(m *ModulePass)
}

// Analyzers returns the full simlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Maprange, Forbidden, Errdrop, Unused, Floatfuse}
}

// A Diagnostic is one finding, located and attributed to its check.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Message)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// RelPath is the package's import path relative to the module root
	// ("internal/rfs"), or the full import path for packages outside
	// the module.
	RelPath string

	sink *runState
}

// Reportf records a finding at pos unless an applicable
// //simlint:allow directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.sink.reportAt(p.Analyzer.Name, p.Fset.Position(pos), format, args...)
}

// TypeOf is a nil-safe Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf resolves an identifier to its object (may be nil).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// A ModulePass carries a module-wide analyzer's view of the whole
// loaded snapshot.
type ModulePass struct {
	Analyzer *Analyzer
	Snap     *Snapshot

	sink *runState
}

// Pass narrows the module pass to one package, for reporting findings
// located there under the module analyzer's name.
func (m *ModulePass) Pass(pkg *Package) *Pass {
	return &Pass{
		Analyzer: m.Analyzer,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		RelPath:  pkg.RelPath,
		sink:     m.sink,
	}
}

// --- suppression directives -----------------------------------------

// directive is one parsed //simlint:allow comment.
type directive struct {
	check  string
	reason string
	pos    token.Position
	used   bool
}

// directiveRe matches `simlint:allow <check> (reason)`. The reason is
// mandatory: a suppression without a recorded why is just a disabled
// check.
var directiveRe = regexp.MustCompile(`^simlint:allow\s+([a-z]+)\s*(\((.*)\))?\s*$`)

// runState is the shared per-run sink: diagnostics plus the directive
// index used for suppression and the unused-suppression audit.
type runState struct {
	diags []Diagnostic
	// directives indexed by file:line.
	dirs   map[string]*directive
	checks map[string]bool // every valid check name
	// audited names whose unused suppressions are findings in this
	// run: the checks that ran. A run of part of the suite (a fixture
	// test runs one analyzer) must not flag the other checks'
	// suppressions as stale, and unused, which reports nothing on a
	// package subset, takes its name out.
	audit map[string]bool
}

func newRunState(analyzers []*Analyzer) *runState {
	rs := &runState{dirs: map[string]*directive{}, checks: map[string]bool{}, audit: map[string]bool{}}
	for _, a := range Analyzers() {
		rs.checks[a.Name] = true
	}
	for _, a := range analyzers {
		rs.audit[a.Name] = true
	}
	return rs
}

func lineKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// collectDirectives indexes every //simlint:allow comment of a file.
// A malformed one is a finding of the "simlint" pseudo-check, and so is
// a //simlint: marker other than allow: a marker nothing reads must not
// look like one that works.
func (rs *runState) collectDirectives(fset *token.FileSet, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := markerText(c)
			name, ok := strings.CutPrefix(text, "simlint:")
			if !ok {
				continue
			}
			if i := strings.IndexFunc(name, unicode.IsSpace); i >= 0 {
				name = name[:i]
			}
			pos := fset.Position(c.Pos())
			if name != "allow" {
				rs.reportAt("simlint", pos, "unknown directive //simlint:%s", name)
				continue
			}
			m := directiveRe.FindStringSubmatch(text)
			switch {
			case m == nil:
				rs.reportAt("simlint", pos, "malformed directive: want //simlint:allow <check> (reason)")
			case !rs.checks[m[1]]:
				rs.reportAt("simlint", pos, "unknown check %q in //simlint:allow directive", m[1])
			case m[2] == "" || strings.TrimSpace(m[3]) == "":
				rs.reportAt("simlint", pos, "suppression of %q needs a reason: //simlint:allow %s (why)", m[1], m[1])
			default:
				rs.dirs[lineKey(pos.Filename, pos.Line)] = &directive{check: m[1], reason: strings.TrimSpace(m[3]), pos: pos}
			}
		}
	}
}

// markerText is a // comment's text after the slashes, trimmed: where
// a //simlint: marker or directive starts.
func markerText(c *ast.Comment) string {
	return strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
}

// collectAll indexes the directives of every file of the snapshot.
func (rs *runState) collectAll(s *Snapshot) {
	for _, pkg := range s.Pkgs {
		for _, f := range pkg.Files {
			rs.collectDirectives(pkg.Fset, f)
		}
	}
}

// suppress reports whether a directive allows this check at this
// position — marking it used. A directive covers its own line and, so
// directives can stack when one line trips several checks, the code
// line below a contiguous run of directive lines.
func (rs *runState) suppress(check string, pos token.Position) bool {
	if d, ok := rs.dirs[lineKey(pos.Filename, pos.Line)]; ok && d.check == check {
		d.used = true
		return true
	}
	for line := pos.Line - 1; ; line-- {
		d, ok := rs.dirs[lineKey(pos.Filename, line)]
		if !ok {
			return false
		}
		if d.check == check {
			d.used = true
			return true
		}
	}
}

// reportAt records a finding unless an applicable //simlint:allow
// directive suppresses it. Reportf and the directive audit report
// through it.
func (rs *runState) reportAt(check string, pos token.Position, format string, args ...any) {
	if rs.suppress(check, pos) {
		return
	}
	rs.diags = append(rs.diags, Diagnostic{Pos: pos, Check: check,
		Message: fmt.Sprintf(format, args...)})
}

// finishUnused reports every audited directive that suppressed
// nothing: a stale allow is a finding, so suppressions cannot outlive
// their reason. Only checks that actually ran are audited.
func (rs *runState) finishUnused() {
	for _, d := range rs.dirs {
		if !d.used && rs.audit[d.check] {
			rs.diags = append(rs.diags, Diagnostic{Pos: d.pos, Check: "simlint",
				Message: fmt.Sprintf("unused suppression: nothing this directive covers triggers %q", d.check)})
		}
	}
}

// --- driver ----------------------------------------------------------

// A Snapshot is one loaded, type-checked view of the module, shared by
// every analyzer of a run: the loader's O(module) parse+type-check work
// happens once, never once per analyzer.
type Snapshot struct {
	// Root is the module root directory the packages were loaded from
	// (empty for synthetic snapshots built directly from packages).
	Root string
	// Pkgs are the loaded module packages in dependency order.
	Pkgs []*Package

	imp     chainImporter // the loader's; nil for fixture snapshots
	partial bool          // loaded from patterns other than ./...
}

// LoadSnapshot loads the packages matching patterns under the module
// rooted at root into one reusable snapshot. Root is stored absolute,
// as package filenames are.
func LoadSnapshot(root string, patterns ...string) (*Snapshot, error) {
	imp := chainImporter{}
	pkgs, err := load(root, patterns, imp)
	if err != nil {
		return nil, err
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	partial := !(len(patterns) == 0 || len(patterns) == 1 && patterns[0] == "./...")
	return &Snapshot{Root: absRoot, Pkgs: pkgs, imp: imp, partial: partial}, nil
}

// Run executes the analyzers over the snapshot and returns all
// findings, sorted by position. Suppression directives are honored
// across the whole snapshot; unused ones (of the analyzers that ran)
// are reported at the end.
func (s *Snapshot) Run(analyzers []*Analyzer) []Diagnostic {
	rs := newRunState(analyzers)
	rs.collectAll(s)
	for _, pkg := range s.Pkgs {
		for _, a := range analyzers {
			if a.Run != nil {
				a.Run((&ModulePass{Analyzer: a, Snap: s, sink: rs}).Pass(pkg))
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a.RunModule(&ModulePass{Analyzer: a, Snap: s, sink: rs})
	}
	rs.finishUnused()
	sortDiags(rs.diags)
	return rs.diags
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}
