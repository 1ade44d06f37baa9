package experiments

import (
	"reflect"
	"testing"
)

// TestExperimentsDeterministic backs the reproducibility claim: the
// simulation has no hidden nondeterminism, so running an experiment
// twice yields bit-identical numbers.
func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"fig12", "fig20"} {
		e := record(t, id)
		_, again, err := e.Run(e.Params, true)
		if err != nil {
			t.Fatal(err)
		}
		if first := figureRows(t, id); !reflect.DeepEqual(first, again) {
			t.Fatalf("%s differs between runs:\n%s\n%s", id, first, again)
		}
	}
}
