package experiments

import "testing"

// TestExperimentsDeterministic backs the reproducibility claim
// (EXPERIMENTS.md, not yet written, is to state it): the simulation
// has no hidden nondeterminism, so running an experiment twice yields
// bit-identical numbers.
func TestExperimentsDeterministic(t *testing.T) {
	run := func() ([]Fig12Row, []Fig20Row) {
		f12, err := Fig12()
		if err != nil {
			t.Fatal(err)
		}
		f20, err := Fig20()
		if err != nil {
			t.Fatal(err)
		}
		return f12, f20
	}
	a12, a20 := run()
	b12, b20 := run()
	for i := range a12 {
		if a12[i] != b12[i] {
			t.Fatalf("Fig12 row %d differs between runs:\n%+v\n%+v", i, a12[i], b12[i])
		}
	}
	for i := range a20 {
		if a20[i] != b20[i] {
			t.Fatalf("Fig20 row %d differs between runs:\n%+v\n%+v", i, a20[i], b20[i])
		}
	}
}
