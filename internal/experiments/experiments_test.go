package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/power"
	"repro/internal/workload"
)

func TestFig11Shape(t *testing.T) {
	r := figureRows(t, "fig11")
	if len(r.Rows) != 5 {
		t.Fatalf("points = %d", len(r.Rows))
	}
	for hops, row := range r.Rows {
		hops++
		gbps, latency := cell(t, r, row.Key, "Gbps/lane"), cell(t, r, row.Key, "Latency(us)")
		// Paper: ~8.2 Gbps/lane sustained regardless of hop count.
		if gbps < 7.5 || gbps > 8.3 {
			t.Errorf("hops %d: %.2f Gbps, want ~8", hops, gbps)
		}
		// Paper: 0.48us per hop.
		perHop := latency / float64(hops)
		if perHop < 0.45 || perHop > 0.7 {
			t.Errorf("hops %d: %.2fus per hop, want ~0.5", hops, perHop)
		}
	}
	if !strings.Contains(r.String(), "Figure 11") {
		t.Fatal("format broken")
	}
}

func TestFig12Shape(t *testing.T) {
	r := figureRows(t, "fig12")
	total := func(path string) float64 { return cell(t, r, path, "Total(us)") }
	ispf, hf, hrhf, hd := total("ISP-F"), total("H-F"), total("H-RH-F"), total("H-D")
	if !(ispf < hf && hf < hrhf) {
		t.Fatalf("ordering broken: %.0f %.0f %.0f", ispf, hf, hrhf)
	}
	if hd >= hf {
		t.Fatalf("H-D (%.0f) should beat H-F (%.0f)", hd, hf)
	}
	if sw := cell(t, r, "ISP-F", "Software"); sw != 0 {
		t.Fatalf("ISP-F has software latency %.1f, want 0", sw)
	}
	// Paper: "in all 4 cases, the network latency is insignificant".
	for _, row := range r.Rows {
		if net, tot := cell(t, r, row.Key, "Network"), total(row.Key); net > 0.1*tot {
			t.Errorf("%s: network %.1fus is not insignificant vs %.1f", row.Key, net, tot)
		}
	}
	// H-D has (nearly) no storage component.
	if st := cell(t, r, "H-D", "Storage"); st > 5 {
		t.Errorf("H-D storage %.1fus, want ~0 (DRAM)", st)
	}
}

func TestFig13Shape(t *testing.T) {
	r := figureRows(t, "fig13")
	get := func(name string) float64 { return cell(t, r, name, "GB/s") }
	hostLocal := get("Host-Local")
	ispLocal := get("ISP-Local")
	isp2 := get("ISP-2Nodes")
	isp3 := get("ISP-3Nodes")

	// Paper: Host-Local capped by PCIe at 1.6; ISP-Local 2.4;
	// ISP-2Nodes ~3.4 (one link); ISP-3Nodes ~6.5 (two links each).
	if hostLocal > 1.6 || hostLocal < 1.3 {
		t.Errorf("Host-Local %.2f GB/s, want ~1.5-1.6 (PCIe cap)", hostLocal)
	}
	if ispLocal < 1.9 || ispLocal > 2.4 {
		t.Errorf("ISP-Local %.2f GB/s, want ~2.2 (2 cards)", ispLocal)
	}
	if isp2 < ispLocal+0.7 || isp2 > ispLocal+1.1 {
		t.Errorf("ISP-2Nodes %.2f GB/s, want local+~1 (one 8.2Gbps link)", isp2)
	}
	if isp3 < 5.0 || isp3 > 6.6 {
		t.Errorf("ISP-3Nodes %.2f GB/s, want ~6 (two remotes, two links each)", isp3)
	}
	if !(hostLocal < ispLocal && ispLocal < isp2 && isp2 < isp3) {
		t.Fatalf("bars not increasing: %.2f %.2f %.2f %.2f", hostLocal, ispLocal, isp2, isp3)
	}
}

func TestFig16Shape(t *testing.T) {
	r := figureRows(t, "fig16")
	val := func(series, threads string) float64 { return cell(t, r, threads, series) }
	// Baseline flat at ~250-300K; throttled ~60-73K; DRAM scales with
	// threads and overtakes the baseline somewhere past 4 threads.
	if v := val("1 Node", "4"); v < 200 || v > 330 {
		t.Errorf("baseline %vK, want ~250-320K", v)
	}
	if v := val("Throttled", "4"); v < 55 || v > 74 {
		t.Errorf("throttled %vK, want ~60-73K", v)
	}
	if val("DRAM", "4") > val("1 Node", "4") {
		t.Errorf("at 4 threads DRAM (%.0fK) should not yet beat the ISP (%.0fK)",
			val("DRAM", "4"), val("1 Node", "4"))
	}
	if val("DRAM", "16") < val("1 Node", "16") {
		t.Errorf("at 16 threads DRAM (%.0fK) should beat the ISP (%.0fK)",
			val("DRAM", "16"), val("1 Node", "16"))
	}
	if val("DRAM", "16") <= val("DRAM", "4") {
		t.Error("DRAM series does not scale with threads")
	}
}

func TestFig17Shape(t *testing.T) {
	r := figureRows(t, "fig17")
	val := func(series string) float64 { return cell(t, r, "8", series) }
	// The collapse: mixed residency far below pure DRAM; disk worse
	// than flash; ISP above both mixed configurations.
	if !(val("10% Flash") < val("DRAM")/3) {
		t.Errorf("10%% flash (%.0fK) should collapse vs DRAM (%.0fK)",
			val("10% Flash"), val("DRAM"))
	}
	if !(val("5% Disk") < val("10% Flash")) {
		t.Errorf("5%% disk (%.0fK) should be below 10%% flash (%.0fK)",
			val("5% Disk"), val("10% Flash"))
	}
	if !(val("ISP") > val("10% Flash")) {
		t.Errorf("throttled ISP (%.0fK) should beat 10%% flash (%.0fK)",
			val("ISP"), val("10% Flash"))
	}
}

func TestFig18Shape(t *testing.T) {
	r := figureRows(t, "fig18")
	val := func(series string) float64 { return cell(t, r, "8", series) }
	// Random SSD poor; sequentialized approaches the throttled ISP.
	if !(val("Full Flash") < 0.75*val("ISP")) {
		t.Errorf("random SSD (%.0fK) should be well below throttled ISP (%.0fK)",
			val("Full Flash"), val("ISP"))
	}
	if v := val("Seq Flash") / val("ISP"); v < 0.8 || v > 1.05 {
		t.Errorf("sequential SSD should approach the ISP level: ratio %.2f", v)
	}
}

func TestFig19Shape(t *testing.T) {
	r := figureRows(t, "fig19")
	isp, sw := cell(t, r, "8", "ISP"), cell(t, r, "8", "BlueDBM+SW")
	adv := isp / sw
	// Paper: "the accelerator advantage is at least 20%".
	if adv < 1.15 || adv > 1.6 {
		t.Fatalf("ISP advantage %.2fx (ISP %.0fK vs SW %.0fK), want ~1.2x", adv, isp, sw)
	}
}

// TestInStoreFiguresRefuseFailedPages: ispvol counts a page its engine
// could not read and carries on, so a figure built on an in-store query
// must refuse one that reports any: its rate would count pages never
// compared. A bit error rate far past what ECC corrects fails every
// read.
func TestInStoreFiguresRefuseFailedPages(t *testing.T) {
	p := core.DefaultParams(1)
	p.Reliability.BitErrorRate = 0.01
	if _, err := ispRate(p); err == nil || !strings.Contains(err.Error(), "pages failed") {
		t.Errorf("nearest neighbour: error %v, want the failed pages named", err)
	}
	if _, err := fig21ISP(p, 16, workload.TextPages(51, "BLUEDBM", 4), []byte("BLUEDBM")); err == nil || !strings.Contains(err.Error(), "pages failed") {
		t.Errorf("string search: error %v, want the failed pages named", err)
	}
}

func TestFig20Shape(t *testing.T) {
	r := figureRows(t, "fig20")
	get := func(name string) float64 { return cell(t, r, name, "Lookups/s") }
	ispf, hf, hrhf := get("ISP-F"), get("H-F"), get("H-RH-F")
	f50, f30, hdram := get("50%F"), get("30%F"), get("H-DRAM")
	if !(ispf > hf && hf > hrhf) {
		t.Fatalf("flash path ordering broken: %.0f %.0f %.0f", ispf, hf, hrhf)
	}
	if r := ispf / hrhf; r < 2.0 || r > 4.5 {
		t.Fatalf("ISP-F / H-RH-F = %.2f, paper reports ~3", r)
	}
	if !(hrhf < f50 && f50 < f30 && f30 < hdram) {
		t.Fatalf("DRAM-mix ordering broken: %.0f %.0f %.0f %.0f", hrhf, f50, f30, hdram)
	}
	if ispf < f50 {
		t.Fatalf("ISP-F (%.0f) must beat 50%%-DRAM (%.0f): the paper's headline", ispf, f50)
	}
}

func TestFig21Shape(t *testing.T) {
	r := figureRows(t, "fig21")
	mbps := func(m string) float64 { return cell(t, r, m, "MB/s") }
	cpu := func(m string) float64 { return cell(t, r, m, "CPU util %") / 100 }
	isp, sw, hdd := "Flash/ISP", "Flash/SW Grep", "HDD/SW Grep"

	// Paper: 1.1 GB/s at ~0% CPU.
	if mbps(isp) < 900 || mbps(isp) > 1100 {
		t.Errorf("Flash/ISP %.0f MB/s, want ~1000-1100", mbps(isp))
	}
	if cpu(isp) > 0.02 {
		t.Errorf("Flash/ISP CPU %.0f%%, want ~0", cpu(isp)*100)
	}
	// Paper: SSD-bound grep at 65% CPU.
	if mbps(sw) < 350 || mbps(sw) > 620 {
		t.Errorf("Flash/SW %.0f MB/s, want IO-bound 400-600", mbps(sw))
	}
	if cpu(sw) < 0.40 || cpu(sw) > 0.80 {
		t.Errorf("Flash/SW CPU %.0f%%, want ~65%%", cpu(sw)*100)
	}
	// Paper: ISP 7.5x faster than HDD grep, which sits at 13% CPU.
	if r := mbps(isp) / mbps(hdd); r < 5.5 || r > 9.5 {
		t.Errorf("ISP/HDD speedup %.1fx, paper reports 7.5x", r)
	}
	if cpu(hdd) > 0.25 {
		t.Errorf("HDD/SW CPU %.0f%%, want low (~13%%)", cpu(hdd)*100)
	}
	if cell(t, r, isp, "Matches") == 0 {
		t.Error("no matches found; experiment is vacuous")
	}
}

func TestTablesFormat(t *testing.T) {
	var text [3]string
	var vals [3]any
	for i, id := range []string{"table1", "table2", "table3"} {
		text[i], vals[i] = shortRun(t, id)
		if !strings.Contains(text[i], "Total") {
			t.Fatalf("table missing totals:\n%s", text[i])
		}
	}
	if !vals[0].(fpga.Report).Fits() || !vals[1].(fpga.Report).Fits() {
		t.Fatal("designs do not fit their FPGAs")
	}
	if w := vals[2].(power.Budget).Total(); w != 240 {
		t.Fatalf("node power %.0f, want 240", w)
	}
}
