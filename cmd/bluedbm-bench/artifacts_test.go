//go:build !race

// The regeneration takes ~13 s plain and minutes under the race
// detector, which adds nothing here: the simulator is single-threaded.

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArtifactsRegenerateByteIdentical is the repo's behavioural
// contract as a test: every experiment that writes JSON metrics —
// except engine, whose numbers are wall-clock — regenerates, at full
// size, a file byte-identical to the committed BENCH_<ID>.json. The
// artifacts hold virtual-time metrics only, so any difference means a
// change altered simulated behaviour, and the artifacts (and their
// headline claims) must be re-reviewed, not silently re-rolled.
func TestArtifactsRegenerateByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size regeneration of the seven artifacts")
	}
	dir := t.TempDir()
	for i, r := range allRunners(false, "") {
		if !r.writesJSON || r.id == "engine" {
			continue
		}
		t.Run(r.id, func(t *testing.T) {
			out := filepath.Join(dir, r.id+".json")
			// The runner table binds its -json path when built.
			if _, err := allRunners(false, out)[i].run(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			committed := "BENCH_" + strings.ToUpper(r.id) + ".json"
			want, err := os.ReadFile(filepath.Join("..", "..", committed))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s drifted from a fresh regeneration at line %d:\n  committed:   %s\n  regenerated: %s",
						committed, i+1, wl[i], gl[i])
				}
			}
			t.Fatalf("%s drifted from a fresh regeneration: %d lines committed, %d regenerated", committed, len(wl), len(gl))
		})
	}
}
