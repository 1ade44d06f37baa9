// Package lint is simlint: a static-analysis suite that enforces the
// two invariants every committed BENCH artifact rests on — bit-exact
// determinism and allocation-free hot paths — at build time instead of
// debugging time.
//
// The simulator's reproducibility argument is only as strong as its
// weakest `for k := range someMap` or stray time.Now(): either one
// silently breaks identical event order across runs, and the failure
// shows up weeks later as a golden-digest mismatch nobody can bisect.
// The analyzers here turn each such class into a build break:
//
//	maprange       order-dependent iteration over Go maps in the
//	               deterministic core (map iteration order is
//	               randomized per run)
//	walltime       wall-clock time and global math/rand in simulation
//	               packages (virtual time comes from sim.Engine,
//	               randomness from sim.RNG)
//	noconcurrency  go statements, channel operations and sync
//	               primitives inside the single-threaded core, where
//	               concurrency can only mean nondeterminism
//	hotpath        AST-visible allocation sources inside functions
//	               annotated //simlint:hotpath (the alloc-free
//	               surfaces pinned by the sim AllocsPerRun tests)
//	errdrop        discarded error results in internal/ (the bug
//	               class PR 5 fixed by hand in the graph walker)
//	hotcall        allocation sources in UN-annotated functions that
//	               are transitively reachable from a //simlint:hotpath
//	               function over the module call graph — findings
//	               report the full call chain, and interface calls
//	               fan out to every in-module implementation
//	poolleak       pooled objects (declared //simlint:pool get=F put=G
//	               on the pool type) acquired but neither released nor
//	               handed off on some path, including error paths
//	oncedone       completion callbacks declared //simlint:once that
//	               some path invokes zero times (a hang) or more than
//	               once (the over-grant/double-completion bug class)
//	unused         exported names that no non-test code references,
//	               in the module or in a module nested under it
//	               (bench/): test-only code belongs in test files
//	escapecheck    (driver mode, cmd/simlint -escapes) heap
//	               allocations the real compiler reports via
//	               -gcflags=-m inside hotpath-reachable functions
//	               that the AST-level analyzers did not see
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
// exceptions, never a graveyard.
//
// The framework is deliberately self-contained on the standard
// library's go/ast and go/types (the usual golang.org/x/tools
// go/analysis machinery is not vendored here); cmd/simlint is the
// driver, and Lint in this package is the embeddable entry point the
// repo's own tests use to keep `go test ./...` as strict as CI.
//
// The module is loaded and type-checked exactly once per run: a
// Snapshot carries the loaded packages plus lazily-built shared
// infrastructure (the call graph), and every analyzer — per-package or
// module-wide — runs over that one snapshot.
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
)

// An Analyzer is one named check. Exactly one of Run and RunModule is
// set: Run inspects a single type-checked package via its Pass, while
// RunModule sees the whole loaded snapshot at once (for analyses that
// need the cross-package call graph).
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
// Escapecheck is absent: it needs real compiler output and runs only
// through cmd/simlint -escapes (or Escapes in this package).
func Analyzers() []*Analyzer {
	return []*Analyzer{Maprange, Walltime, Noconcurrency, Hotpath, Errdrop,
		Hotcall, Poolleak, Oncedone, Unused}
}

// knownChecks returns every valid //simlint:allow check name,
// including escapecheck, which is driver-run rather than part of
// Analyzers. Directive validation keys on this set so an escapecheck
// suppression is never misreported as an unknown check by the AST run.
func knownChecks() map[string]bool {
	m := map[string]bool{Escapecheck.Name: true}
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
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
	position := p.Fset.Position(pos)
	if p.sink.suppress(p.Analyzer.Name, position) {
		return
	}
	p.sink.diags = append(p.sink.diags, Diagnostic{
		Pos:     position,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether a //simlint:allow directive for check covers
// pos (same line or the line above), marking it used. Module analyzers
// use it to honor audited escape hatches at positions that never reach
// Reportf — e.g. a cold virtual call edge pruned from hot propagation.
func (p *Pass) Allowed(check string, pos token.Pos) bool {
	return p.sink.suppress(check, p.Fset.Position(pos))
}

// TypeOf is a nil-safe Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf resolves an identifier to its object (may be nil).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

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
	// run. A run that executes only part of the suite (the AST run
	// vs the -escapes run) must not flag the other part's
	// suppressions as stale.
	audit map[string]bool
}

func newRunState(analyzers []*Analyzer) *runState {
	rs := &runState{dirs: map[string]*directive{}, checks: knownChecks(), audit: map[string]bool{}}
	for _, a := range analyzers {
		rs.audit[a.Name] = true
	}
	return rs
}

func lineKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// collectDirectives indexes every //simlint:allow comment of a file,
// reporting malformed ones as findings of the "simlint" pseudo-check.
func (rs *runState) collectDirectives(fset *token.FileSet, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "simlint:allow") {
				continue
			}
			pos := fset.Position(c.Pos())
			m := directiveRe.FindStringSubmatch(text)
			if m == nil {
				rs.diags = append(rs.diags, Diagnostic{Pos: pos, Check: "simlint",
					Message: "malformed directive: want //simlint:allow <check> (reason)"})
				continue
			}
			check, reason := m[1], strings.TrimSpace(m[3])
			if !rs.checks[check] {
				rs.diags = append(rs.diags, Diagnostic{Pos: pos, Check: "simlint",
					Message: fmt.Sprintf("unknown check %q in //simlint:allow directive", check)})
				continue
			}
			if m[2] == "" || reason == "" {
				rs.diags = append(rs.diags, Diagnostic{Pos: pos, Check: "simlint",
					Message: fmt.Sprintf("suppression of %q needs a reason: //simlint:allow %s (why)", check, check)})
				continue
			}
			rs.dirs[lineKey(pos.Filename, pos.Line)] = &directive{
				check: check, reason: reason, pos: pos,
			}
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

// reportAt records a finding at an externally-produced position (the
// compiler's, for escapecheck) honoring suppressions exactly like
// Reportf.
func (rs *runState) reportAt(check string, pos token.Position, format string, args ...any) {
	if rs.suppress(check, pos) {
		return
	}
	rs.diags = append(rs.diags, Diagnostic{Pos: pos, Check: check,
		Message: fmt.Sprintf(format, args...)})
}

// finishUnused reports every audited directive that suppressed
// nothing: a stale allow is a finding, so suppressions cannot outlive
// their reason. Only checks that actually ran are audited — the AST
// run must not flag escapecheck suppressions (used only by the
// -escapes mode) as stale, and vice versa.
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
// every analyzer of a run (and by the -escapes cross-check): the
// loader's O(module) parse+type-check work happens once, never once
// per analyzer or once per mode.
type Snapshot struct {
	// Root is the module root directory the packages were loaded from
	// (empty for synthetic snapshots built directly from packages).
	Root string
	// Pkgs are the loaded module packages in dependency order.
	Pkgs []*Package

	cg      *callGraph     // built on first use, shared by hotcall + escapecheck
	imp     *chainImporter // the loader's; nil for synthetic snapshots
	partial bool           // loaded from patterns other than ./...
}

// LoadSnapshot loads the packages matching patterns under the module
// rooted at root into one reusable snapshot. Root is stored absolute:
// package filenames are absolute, and the -escapes cross-check joins
// compiler-relative paths against Root to match them.
func LoadSnapshot(root string, patterns ...string) (*Snapshot, error) {
	imp := newChainImporter()
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

// CallGraph returns the module call graph, building it on first use.
func (s *Snapshot) CallGraph() *callGraph {
	if s.cg == nil {
		s.cg = buildCallGraph(s.Pkgs)
	}
	return s.cg
}

// Run executes the analyzers over the snapshot and returns all
// findings, sorted by position. Suppression directives are honored
// across the whole snapshot; unused ones (of the analyzers that ran)
// are reported at the end.
func (s *Snapshot) Run(analyzers []*Analyzer) []Diagnostic {
	rs := newRunState(analyzers)
	for _, pkg := range s.Pkgs {
		for _, f := range pkg.Files {
			rs.collectDirectives(pkg.Fset, f)
		}
	}
	for _, pkg := range s.Pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				RelPath:  pkg.RelPath,
				sink:     rs,
			})
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

// Run executes the analyzers over pre-loaded packages (the fixture
// path used by linttest). Equivalent to wrapping them in a Snapshot.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return (&Snapshot{Pkgs: pkgs}).Run(analyzers)
}
