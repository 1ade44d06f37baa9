// Package fpga models the FPGA resource accounting of the BlueDBM
// implementation (paper §6.1, Tables 1 and 2). The real numbers come
// from Vivado synthesis reports of the Artix-7 flash controller and
// the Virtex-7 host design; here they are reproduced as a component
// inventory whose per-module costs are the paper's published values,
// scaled by the number of module instances the configured system
// actually contains. This is a deliberate substitution:
// resource tables are datasheet arithmetic, not runtime behaviour.
package fpga

import (
	"fmt"
	"strings"
)

// Module is one synthesized component.
type Module struct {
	Name      string
	Count     int
	LUTs      int // per instance
	Registers int // per instance
	RAMB36    int // per instance (Table 1 reports "BRAM" in RAMB36 units)
	RAMB18    int
}

// Totals sums a module's cost across its instances.
func (m Module) Totals() (luts, regs, r36, r18 int) {
	return m.LUTs * m.Count, m.Registers * m.Count, m.RAMB36 * m.Count, m.RAMB18 * m.Count
}

// Device is an FPGA part with its capacity.
type Device struct {
	Name      string
	LUTs      int
	Registers int
	RAMB36    int
	RAMB18    int
}

// The two parts used by the BlueDBM boards.
var (
	Artix7  = Device{Name: "Artix-7 XC7A200T", LUTs: 134600, Registers: 269200, RAMB36: 365, RAMB18: 730}
	Virtex7 = Device{Name: "Virtex-7 XC7VX485T", LUTs: 303600, Registers: 607200, RAMB36: 1030, RAMB18: 2060}
)

// Report is a synthesized design: modules on a device.
type Report struct {
	Device  Device
	Modules []Module
}

// Totals sums the whole design.
func (r Report) Totals() (luts, regs, r36, r18 int) {
	for _, m := range r.Modules {
		l, g, a, b := m.Totals()
		luts += l
		regs += g
		r36 += a
		r18 += b
	}
	return
}

// UtilizationPct returns percentage use of LUTs, registers, RAMB36 and
// RAMB18.
func (r Report) UtilizationPct() (luts, regs, r36, r18 float64) {
	l, g, a, b := r.Totals()
	pct := func(used, avail int) float64 {
		if avail == 0 {
			return 0
		}
		return 100 * float64(used) / float64(avail)
	}
	return pct(l, r.Device.LUTs), pct(g, r.Device.Registers),
		pct(a, r.Device.RAMB36), pct(b, r.Device.RAMB18)
}

// Fits reports whether the design fits its device.
//
//simlint:allow unused (checker: the designs of Tables 1 and 2 fit their device, which the fpga and experiments tests check)
func (r Report) Fits() bool {
	l, g, a, b := r.Totals()
	return l <= r.Device.LUTs && g <= r.Device.Registers &&
		a <= r.Device.RAMB36 && b <= r.Device.RAMB18
}

// FlashControllerReport reproduces Table 1: the flash controller on
// each card's Artix-7, parameterized by the card's bus count (the bus
// controller and its sub-modules replicate per bus).
func FlashControllerReport(buses int) Report {
	return Report{
		Device: Artix7,
		Modules: []Module{
			// Paper Table 1 lists each module group's total across its
			// instances; per-instance cost = listed total / count.
			{Name: "Bus Controller", Count: buses, LUTs: 7131 / 8, Registers: 4870 / 8, RAMB36: 21 / 8},
			{Name: "ECC Decoder", Count: 2 * buses / 8, LUTs: 1790 / 2, Registers: 1233 / 2, RAMB36: 2 / 2},
			{Name: "Scoreboard", Count: buses / 8, LUTs: 1149, Registers: 780},
			{Name: "PHY", Count: buses / 8, LUTs: 1635, Registers: 607},
			{Name: "ECC Encoder", Count: 2 * buses / 8, LUTs: 565 / 2, Registers: 222 / 2},
			{Name: "SerDes", Count: 1, LUTs: 3061, Registers: 3463, RAMB36: 13},
			// Glue, chip-select fan-out, configuration — the remainder
			// of the paper's 75225-LUT / 62801-register Artix total.
			{Name: "Infrastructure", Count: 1, LUTs: 59898, Registers: 51633, RAMB36: 150},
		},
	}
}

// HostFPGAReport reproduces Table 2: the Virtex-7 design on the VC707,
// parameterized by network port count (the network interface grows
// with fan-out).
func HostFPGAReport(networkPorts int) Report {
	return Report{
		Device: Virtex7,
		Modules: []Module{
			{Name: "Flash Interface", Count: 1, LUTs: 1389, Registers: 2139},
			{Name: "Network Interface", Count: 1, LUTs: 29591 * networkPorts / 8, Registers: 27509 * networkPorts / 8},
			{Name: "DRAM Interface", Count: 1, LUTs: 11045, Registers: 7937},
			{Name: "Host Interface", Count: 1, LUTs: 88376, Registers: 46065, RAMB36: 169, RAMB18: 14},
			// Clocking, reset, debug infrastructure up to the paper's
			// 135271-LUT total.
			{Name: "Infrastructure", Count: 1, LUTs: 4870, Registers: 52247, RAMB36: 55, RAMB18: 4},
		},
	}
}

// FormatTable renders a report in the paper's table layout.
func FormatTable(title string, r Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-22s %6s %9s %10s %7s %7s\n", "Module Name", "#", "LUTs", "Registers", "RAMB36", "RAMB18")
	for _, m := range r.Modules {
		l, g, a, bb := m.Totals()
		fmt.Fprintf(&b, "%-22s %6d %9d %10d %7d %7d\n", m.Name, m.Count, l, g, a, bb)
	}
	l, g, a, bb := r.Totals()
	lp, gp, ap, bp := r.UtilizationPct()
	fmt.Fprintf(&b, "%-22s %6s %9d %10d %7d %7d\n", r.Device.Name+" Total", "", l, g, a, bb)
	fmt.Fprintf(&b, "%-22s %6s %8.0f%% %9.0f%% %6.0f%% %6.0f%%\n", "Utilization", "", lp, gp, ap, bp)
	return b.String()
}
