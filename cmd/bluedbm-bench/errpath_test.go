package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fabric"
)

// TestExperimentErrorNamesItsIDOnce: a figure that fails — here on a
// cluster with no pages per flash block and a network configuration
// left zero — reaches the command's error path, which prints its id
// once; the figure does not print it again.
func TestExperimentErrorNamesItsIDOnce(t *testing.T) {
	failing := map[string]bool{"fig11": true, "fig12": true, "fig13": true, "fig21": true}
	for _, e := range experiments.Experiments() {
		if !failing[e.ID] {
			continue
		}
		delete(failing, e.ID)
		e.Params.Geometry.PagesPerBlock = 0
		e.Params.Net = fabric.Config{}
		var stdout, stderr bytes.Buffer
		if runExperiments([]experiments.Experiment{e}, true, "", &stdout, &stderr) == 0 {
			t.Errorf("%s ran on a broken geometry: %s", e.ID, stdout.String())
			continue
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "bluedbm-bench: "+e.ID+": ") || strings.Count(msg, e.ID) != 1 {
			t.Errorf("%s failed with %q: want its id once, after the command's prefix", e.ID, msg)
		}
	}
	for id := range failing {
		t.Errorf("no experiment %s", id)
	}
}
