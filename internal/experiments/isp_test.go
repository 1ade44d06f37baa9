package experiments

import (
	"encoding/json"
	"testing"
)

// ispRun is the four-arm contention experiment at -short size, run
// once for every test that reads it (each arm is a full cluster run).
func ispRun(t *testing.T) ispResult {
	t.Helper()
	_, v := shortRun(t, "isp")
	return v.(ispResult)
}

// TestISPSchedulerBypassRegression is the regression test for the
// scheduler-bypass bug: un-arbitrated core.Node flash reads from the
// accelerator stack inflate realtime host p99 under mixed load (the
// bypass arm), and admitting ISP traffic through the scheduler's
// Accel class (the isp-f arm) restores the tail to near the no-ISP
// baseline at comparable query throughput.
func TestISPSchedulerBypassRegression(t *testing.T) {
	r := ispRun(t)
	if r.Base.RealtimeP99Us <= 0 {
		t.Fatal("no baseline realtime tail measured")
	}
	// The bug: bypassing ISP load blows the realtime tail well past
	// the acceptance envelope.
	if r.P99BypassX <= 1.5 {
		t.Fatalf("bypass arm p99 only %.2fx base; the bug scenario lost its teeth", r.P99BypassX)
	}
	// The fix: admitted ISP load keeps the tail inside 1.5x baseline.
	if r.P99ISPFX > 1.5 {
		t.Fatalf("isp-f arm p99 %.2fx base, want <= 1.5x", r.P99ISPFX)
	}
	// And the fix must not have neutered the accelerators: admitted
	// throughput stays within reach of the unarbitrated path.
	if r.ISPF.QueryMBps <= 0 {
		t.Fatal("isp-f arm moved no query bytes")
	}
}

// TestISPContentionAcceptance guards the headline: the distributed
// ISP-F path beats host-mediated scanning on query throughput at
// identical offered host load, and every arm agrees on the query
// answer.
func TestISPContentionAcceptance(t *testing.T) {
	r := ispRun(t)
	if r.QuerySpeedupX <= 1 {
		t.Fatalf("isp-f only %.2fx host-mediated query throughput", r.QuerySpeedupX)
	}
	if r.ISPF.MatchesPerQuery == 0 {
		t.Fatal("queries found no matches; the haystack plant is broken")
	}
	if r.ISPF.MatchesPerQuery != r.HostMediated.MatchesPerQuery ||
		r.ISPF.MatchesPerQuery != r.Bypass.MatchesPerQuery {
		t.Fatalf("arms disagree on matches: isp-f %d, host %d, bypass %d",
			r.ISPF.MatchesPerQuery, r.HostMediated.MatchesPerQuery, r.Bypass.MatchesPerQuery)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("result does not marshal: %v", err)
	}
	if len(b) == 0 {
		t.Fatal("empty JSON")
	}
}
