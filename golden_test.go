package repro_test

// The examples and the command-line tools print virtual time only, so
// their combined output is a golden file: a change to a result or to a
// timing they show moves it.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestOutputGoldens builds every example and command with one go build,
// runs the five examples in order and compares what they print with
// examples/testdata/output.txt, then runs bluedbm-sim, bluedbm-topo
// (a generated ring piped into its own checker) and bluedbm-fs and
// compares theirs with cmd/testdata/output.txt.
func TestOutputGoldens(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin+string(os.PathSeparator), "./examples/...", "./cmd/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(stdin []byte, name string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Stdin = bytes.NewReader(stdin)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, stderr.Bytes())
		}
		return out
	}

	var examples bytes.Buffer
	for _, e := range []string{"graphtraversal", "nearestneighbor", "quickstart", "stringsearch", "tablescan"} {
		examples.Write(run(nil, e))
	}
	requireGolden(t, "examples/testdata/output.txt", examples.Bytes())

	var tools bytes.Buffer
	tools.Write(run(nil, "bluedbm-sim"))
	ring := run(nil, "bluedbm-topo", "-gen", "ring", "-nodes", "8", "-lanes", "2")
	tools.Write(run(ring, "bluedbm-topo", "-check", "/dev/stdin", "-routes"))
	tools.Write(run(nil, "bluedbm-fs"))
	requireGolden(t, "cmd/testdata/output.txt", tools.Bytes())
}

// requireGolden fails with the first line where got leaves the golden
// file.
func requireGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Fatalf("%s differs at line %d:\n  golden: %s\n  got:    %s", golden, i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("%s differs: %d lines golden, %d got", golden, len(wl), len(gl))
}
