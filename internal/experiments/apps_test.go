package experiments

import (
	"encoding/json"
	"testing"
)

// appsRun is the five-arm applications experiment at -short size, run
// once for every test that reads it (each arm is a full cluster run).
func appsRun(t *testing.T) appsResult {
	t.Helper()
	_, v := shortRun(t, "apps")
	return v.(appsResult)
}

// TestAppsAcceptance guards the headlines: each distributed
// application beats its host-centric twin at identical offered host
// load. (Answer cross-validation — NN against brute force, VisitSums
// against the reference walk — happens inline in every arm; a wrong
// answer fails Apps itself.)
func TestAppsAcceptance(t *testing.T) {
	r := appsRun(t)
	if r.NNDist.NNQueries == 0 || r.NNHost.NNQueries == 0 {
		t.Fatal("an NN arm completed no queries")
	}
	if r.NNSpeedupX <= 1.0 {
		t.Fatalf("distributed NN %.1fx host-mediated, want > 1x (%.0f vs %.0f cmp/s)",
			r.NNSpeedupX, r.NNDist.CmpPerSec, r.NNHost.CmpPerSec)
	}
	if r.WalkMigrate.Walks == 0 || r.WalkHome.Walks == 0 {
		t.Fatal("a traversal arm completed no walks")
	}
	if r.WalkSpeedupX <= 1.2 {
		t.Fatalf("migrating traversal %.1fx home-node, want well past 1x (%.0f vs %.0f lookups/s)",
			r.WalkSpeedupX, r.WalkMigrate.LookupsPerSec, r.WalkHome.LookupsPerSec)
	}
	// The walk actually migrated instead of degenerating to one node.
	if r.WalkMigrate.Migrations == 0 {
		t.Fatal("migrating arm never moved a walker between nodes")
	}
}

// TestAppsQoSHolds: the distributed applications run under the Accel
// token budget, so the realtime foreground tail stays close to the
// app-free baseline — the scheduler-admission property the whole
// ispvol layer exists for.
func TestAppsQoSHolds(t *testing.T) {
	r := appsRun(t)
	if r.Base.RealtimeP99Us <= 0 {
		t.Fatal("no baseline realtime tail measured")
	}
	// Generous CI envelope; the committed BENCH_APPS.json shows ~1.1x.
	if r.P99NNDistX > 1.35 {
		t.Fatalf("nn-dist realtime p99 %.2fx base, want <= 1.35x", r.P99NNDistX)
	}
	if r.P99WalkMigrateX > 1.35 {
		t.Fatalf("walk-migrate realtime p99 %.2fx base, want <= 1.35x", r.P99WalkMigrateX)
	}
}

// TestAppsJSONRoundTrip: the result marshals (it is the committed
// benchmark artifact's shape).
func TestAppsJSONRoundTrip(t *testing.T) {
	r := appsRun(t)
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back appsResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.NNSpeedupX != r.NNSpeedupX || back.WalkSpeedupX != r.WalkSpeedupX {
		t.Fatal("JSON round trip lost the headline ratios")
	}
}
