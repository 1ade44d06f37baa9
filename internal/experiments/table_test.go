package experiments

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
)

// record is the table's experiment id.
func record(t testing.TB, id string) Experiment {
	t.Helper()
	for _, e := range Experiments() {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("no experiment %q in the table", id)
	return Experiment{}
}

// runs caches each record's run on its table Params at -short size:
// the shape tests and TestFiguresReadTheirParams share one run each.
var runs sync.Map // id -> *cachedRun

type cachedRun struct {
	once  sync.Once
	text  string
	value any
	err   error
}

// shortRun is record id's cached run.
func shortRun(t testing.TB, id string) (string, any) {
	t.Helper()
	c, _ := runs.LoadOrStore(id, &cachedRun{})
	r := c.(*cachedRun)
	r.once.Do(func() {
		e := record(t, id)
		r.text, r.value, r.err = e.Run(e.Params, true)
	})
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.text, r.value
}

// figureRows is paper figure id's cached Rows.
func figureRows(t testing.TB, id string) Rows {
	t.Helper()
	_, v := shortRun(t, id)
	return v.(Rows)
}

// cell reads one cell of a figure, failing the test when it is absent.
func cell(t testing.TB, r Rows, row, col string) float64 {
	t.Helper()
	v, ok := r.Cell(row, col)
	if !ok {
		t.Fatalf("%s has no cell (%s, %s)", r.Title, row, col)
	}
	return v
}

// perturbed slows one latency of each kind the experiments read by
// 10%: the flash page read, the fabric hop and the host's DRAM access.
func perturbed(p core.Params) core.Params {
	p.FlashTiming.ReadPage = p.FlashTiming.ReadPage * 11 / 10
	p.Net.HopLatency = p.Net.HopLatency * 11 / 10
	p.CPU.DRAMLatency = p.CPU.DRAMLatency * 11 / 10
	return p
}

// TestFiguresReadTheirParams runs every virtual-time record on its
// Params with ReadPage, HopLatency and CPU.DRAMLatency each ×1.1 and
// requires its output to move: the proof that the Params it is given
// reach it, which a figure that builds its own cannot pass. The output
// is the run's value (a figure's Rows, a JSON experiment's metrics),
// unrounded: ×1.1 on a DRAM latency that is a fraction of a percent of
// a host compare moves Figures 17 and 18 below their printed digit.
func TestFiguresReadTheirParams(t *testing.T) {
	cannotMove := map[string]string{
		"engine": "its text is wall-clock speed, which differs run to run",
		"table1": "an FPGA resource count: it holds no time",
		"table2": "an FPGA resource count: it holds no time",
		"table3": "a power budget: it holds no time",
	}
	for _, e := range Experiments() {
		if _, ok := cannotMove[e.ID]; ok {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			_, base := shortRun(t, e.ID)
			_, got, err := e.Run(perturbed(e.Params), true)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(got, base) {
				t.Errorf("%s measures the same with its latencies ×1.1: its Params do not reach it", e.ID)
			}
		})
	}
}
