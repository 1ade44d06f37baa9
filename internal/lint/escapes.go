package lint

import (
	"bytes"
	"fmt"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// Escapecheck cross-checks the hotpath walk against the real
// compiler's escape analysis. The walk sees syntactic allocation
// sources (literals, make, closures, boxing); the compiler's
// `-gcflags=-m` output is ground truth about what actually reaches the
// heap — including escapes the AST cannot see, like a local whose
// address flows into a retained pointer.
//
// A finding is a heap allocation the compiler reports on a line of a
// function in hotpath's hot set that the walk did not see: the walk
// neither flagged it (audited or not) nor exempted it under panic. One
// finding per allocation, owned by the check that explains it best.
//
// Escapecheck is not part of Analyzers(): it needs compiler output, so
// it runs only through `cmd/simlint -escapes` (the Escapes function
// here). Intentional heap traffic — one-time setup reached from hot
// code behind a cold branch, amortized growth the allocator sees but
// steady state never hits — carries an audited
// `//simlint:allow escapecheck (reason)` on the allocation line.
var Escapecheck = &Analyzer{
	Name: "escapecheck",
	Doc:  "compiler-reported heap allocation in a hotpath-reachable function the hotpath walk did not see",
}

// An EscapeSite is one heap-allocation decision parsed from
// `go build -gcflags=-m` diagnostics.
type EscapeSite struct {
	File string // as printed by the compiler (relative to the build dir)
	Line int
	Col  int
	Msg  string // e.g. "&request{...} escapes to heap", "moved to heap: buf"
}

// escapeLineRe matches one compiler diagnostic line.
var escapeLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// ParseEscapes extracts the heap-allocation decisions from -m output.
// Only positive decisions are kept: "escapes to heap", "moved to
// heap:", and make/new allocation notes; "does not escape" and inlining
// chatter are dropped.
func ParseEscapes(out string) []EscapeSite {
	var sites []EscapeSite
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := escapeLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !isHeapDecision(msg) {
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		sites = append(sites, EscapeSite{File: m[1], Line: ln, Col: col, Msg: msg})
	}
	return sites
}

// isHeapDecision keeps the compiler messages that mean "this
// allocates on the heap".
func isHeapDecision(msg string) bool {
	if strings.Contains(msg, "does not escape") {
		return false
	}
	return strings.HasSuffix(msg, "escapes to heap") ||
		strings.Contains(msg, "escapes to heap:") ||
		strings.HasPrefix(msg, "moved to heap:")
}

// EscapeCheck reads the compiler's escape sites against the hotpath
// walk over one snapshot, returning the sorted escapecheck findings:
// compiler-visible heap allocations in hot functions that the walk did
// not see.
func EscapeCheck(snap *Snapshot, sites []EscapeSite) []Diagnostic {
	rs := newRunState([]*Analyzer{Escapecheck})
	rs.collectAll(snap)
	hot := walkHot(&ModulePass{Analyzer: Hotpath, Snap: snap, sink: rs}, false)
	for _, site := range sites {
		file := site.File
		if !filepath.IsAbs(file) && snap.Root != "" {
			file = filepath.Join(snap.Root, file)
		}
		key := lineKey(file, site.Line)
		owner, hotLine := hot.owner[key]
		if !hotLine || hot.seen[key] {
			continue // cold code, or the walk already owns this site
		}
		rs.reportAt(Escapecheck.Name,
			token.Position{Filename: file, Line: site.Line, Column: site.Col},
			"compiler escape analysis: %s in hotpath-reachable %s, unseen by the AST analyzers", site.Msg, owner)
	}
	rs.finishUnused()
	sortDiags(rs.diags)
	return rs.diags
}

// Escapes runs the full -escapes mode: compile the patterns with
// `go build -gcflags=-m`, parse the escape decisions, and cross-check
// them against the snapshot. Building writes nothing (the go tool
// discards the objects into its cache) but does real compilation, so
// this is the one simlint mode that costs a build.
func Escapes(snap *Snapshot, patterns ...string) ([]Diagnostic, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	out, err := compilerEscapes(snap.Root, patterns)
	if err != nil {
		return nil, err
	}
	return EscapeCheck(snap, ParseEscapes(out)), nil
}

// compilerEscapes runs the compiler over patterns and returns its -m
// diagnostics. The go tool replays compiler output from the build
// cache, so repeat runs are cheap.
func compilerEscapes(root string, patterns []string) (string, error) {
	args := append([]string{"build", "-gcflags=-m"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("lint: go build -gcflags=-m: %v\n%s", err, stderr.String())
	}
	return stderr.String(), nil
}
