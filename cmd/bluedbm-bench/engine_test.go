package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// TestEngineRunsAppend: -run engine -json keeps a history. A path that
// does not exist yet starts a trajectory, a second run is added behind
// the first, the committed BENCH_ENGINE.json is such a trajectory, and
// a file that is something else is refused, not overwritten.
func TestEngineRunsAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.json")
	for i := 1; i <= 2; i++ {
		res := experiments.EngineResult{Points: []experiments.EnginePoint{{Nodes: i}}}
		if err := appendEngineRun(path, res); err != nil {
			t.Fatal(err)
		}
		traj := readTrajectory(t, path)
		if len(traj.Runs) != i {
			t.Fatalf("after run %d the file holds %d runs", i, len(traj.Runs))
		}
		last := traj.Runs[i-1]
		if last.Commit == "" || last.Date == "" || last.Machine == "" || last.Points[0].Nodes != i {
			t.Fatalf("run %d recorded as %+v", i, last)
		}
	}

	committed := readTrajectory(t, filepath.Join("..", "..", "BENCH_ENGINE.json"))
	if len(committed.Runs) < 2 {
		t.Fatalf("BENCH_ENGINE.json holds %d runs: the trajectory lost its history", len(committed.Runs))
	}

	other := filepath.Join(t.TempDir(), "other.json")
	if err := os.WriteFile(other, []byte(`{"points": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendEngineRun(other, experiments.EngineResult{}); err == nil {
		t.Fatal("a file that is no trajectory was overwritten")
	}
}

func readTrajectory(t *testing.T, path string) experiments.EngineTrajectory {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var traj experiments.EngineTrajectory
	if err := json.Unmarshal(b, &traj); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return traj
}
