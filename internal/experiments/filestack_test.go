package experiments

import (
	"encoding/json"
	"sync"
	"testing"
)

// fsOnce runs the four-arm file-stack experiment once at a reduced
// size; the assertion tests below share the result (each arm is a
// full cluster run).
var fsOnce = struct {
	sync.Once
	res fsResult
	err error
}{}

func fsRun(t *testing.T) fsResult {
	t.Helper()
	fsOnce.Do(func() {
		cfg := defaultFileStack(true)
		// Test-sized window: enough churn to reach cleaning in the rfs
		// arms, one query stream so the ISP arms stay cheap.
		cfg.Overwrites = 768
		cfg.QueryStreams = 1
		fsOnce.res, fsOnce.err = fileStack(record(t, "fs").Params, cfg)
	})
	if fsOnce.err != nil {
		t.Fatal(fsOnce.err)
	}
	return fsOnce.res
}

// TestFileStackFigure8EndToEnd guards the pipeline: distributed file
// scans complete over the cluster RFS (file -> physical-address query
// -> scheduler-admitted engines -> merge), agree byte-for-byte with
// the host-mediated file path, and move bytes at a real rate.
func TestFileStackFigure8EndToEnd(t *testing.T) {
	r := fsRun(t)
	if r.RFSISP.Queries == 0 || r.RFSHostMed.Queries == 0 {
		t.Fatalf("query arms idle: isp %d, host %d", r.RFSISP.Queries, r.RFSHostMed.Queries)
	}
	if r.RFSISP.MatchesPerQuery == 0 {
		t.Fatal("distributed scans found no matches; the haystack plant is broken")
	}
	if r.RFSISP.MatchesPerQuery != r.RFSHostMed.MatchesPerQuery {
		t.Fatalf("arms disagree on matches: isp %d, host-mediated %d",
			r.RFSISP.MatchesPerQuery, r.RFSHostMed.MatchesPerQuery)
	}
	if r.ScanSpeedupX <= 1 {
		t.Fatalf("distributed file scans only %.2fx host-mediated", r.ScanSpeedupX)
	}
}

// TestFileStackQoSUnderCleaning guards the QoS half: the rfs arms
// keep cleaning (Background-admitted) off the realtime tail, and
// admitted ISP scans stay inside a modest envelope of the no-ISP
// baseline.
func TestFileStackQoSUnderCleaning(t *testing.T) {
	r := fsRun(t)
	if r.RFS.CleanMoves == 0 {
		t.Fatal("churn never reached cleaning; the window is too small to measure anything")
	}
	if r.RFS.RealtimeP99Us <= 0 {
		t.Fatal("no baseline realtime tail measured")
	}
	if r.P99ISPX > 1.5 {
		t.Fatalf("isp arm realtime p99 %.2fx the no-ISP baseline, want <= 1.5x", r.P99ISPX)
	}
}

// TestFileStackMappingFootprint guards the memory half of the §4
// claim: the FTL stack maps its whole logical space while RFS maps
// only live file pages.
func TestFileStackMappingFootprint(t *testing.T) {
	r := fsRun(t)
	if r.Blockfs.MappingEntries <= r.RFS.MappingEntries {
		t.Fatalf("blockfs maps %d entries, rfs %d: the footprint claim inverted",
			r.Blockfs.MappingEntries, r.RFS.MappingEntries)
	}
	want := r.Config.ScanPages + r.Config.ChurnPages
	if r.RFS.MappingEntries != want {
		t.Fatalf("rfs live mappings %d, want exactly the %d live file pages", r.RFS.MappingEntries, want)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("result does not marshal: %v", err)
	}
	if len(b) == 0 {
		t.Fatal("empty JSON")
	}
}
