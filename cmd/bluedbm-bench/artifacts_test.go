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

	"repro/internal/experiments"
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
	for _, e := range experiments.Experiments() {
		if !e.JSON || e.ID == "engine" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			out := filepath.Join(dir, e.ID+".json")
			_, v, err := e.Run(e.Params, false)
			if err == nil {
				err = writeMetrics(out, v)
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			committed := "BENCH_" + strings.ToUpper(e.ID) + ".json"
			want, err := os.ReadFile(filepath.Join("..", "..", committed))
			if err != nil {
				t.Fatal(err)
			}
			requireSame(t, committed, got, want)
		})
	}
}

// paperFigures are the experiments that print one of the paper's own
// tables or figures, in the order the command runs them.
const paperFigures = "table1,table2,table3,fig11,fig12,fig13,fig16,fig17,fig18,fig19,fig20,fig21"

// TestPaperFiguresUnchanged pins the text of every paper table and
// figure — what `bluedbm-bench -run table1,...,fig21` prints — to
// testdata/paper_figures.txt. They are the numbers the model exists to
// hit and hold virtual time only, so a change that speeds the simulator
// up must leave every digit where it was; a change that means to move
// one regenerates the file with that command and says why.
func TestPaperFiguresUnchanged(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "paper_figures.txt"))
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, id := range strings.Split(paperFigures, ",") {
		ids[id] = true
	}
	var got bytes.Buffer
	for _, e := range experiments.Experiments() {
		if !ids[e.ID] {
			continue
		}
		out, _, err := e.Run(e.Params, false)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got.WriteString(out + "\n") // as main prints it
	}
	requireSame(t, "testdata/paper_figures.txt", got.Bytes(), want)
}
