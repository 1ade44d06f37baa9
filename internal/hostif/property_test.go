package hostif

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// Property: whatever the page sizes and however many wait for a
// buffer, exactly their bytes cross PCIe, one completion interrupt
// fires per page, completions come in request order and every buffer
// comes home.
func TestDMAConservationProperty(t *testing.T) {
	prop := func(sizesRaw []uint16) bool {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.ReadBuffers = 3
		h, err := New(eng, "p", cfg)
		if err != nil {
			return false
		}
		var total int64
		var order []int
		for i, s := range sizesRaw {
			size := int(s % 9000)
			total += int64(size)
			h.PageUp(size, func() { order = append(order, i) })
		}
		eng.Run()
		for i, who := range order {
			if who != i {
				return false
			}
		}
		return len(order) == len(sizesRaw) &&
			h.ToHostBytes() == total &&
			h.Interrupts.Value() == int64(len(sizesRaw)) &&
			h.FreeReadBuffers() == cfg.ReadBuffers
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: buffer churn never loses or mints a buffer: with any
// number of pages asked for at any instants, the free count is the
// configured count less the pages between their grant and their
// completion.
func TestBufferPoolConservationProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		eng := sim.NewEngine()
		h, err := New(eng, "q", DefaultConfig())
		if err != nil {
			return false
		}
		asked, done := 0, 0
		ok := true
		for _, op := range ops {
			eng.After(sim.Time(op)*sim.Microsecond, func() {
				asked++
				h.PageUp(64*int(op), func() { done++ })
				inFlight := min(asked-done, h.Config().ReadBuffers)
				ok = ok && h.FreeReadBuffers() == h.Config().ReadBuffers-inFlight
			})
		}
		eng.Run()
		return ok && done == len(ops) && h.FreeReadBuffers() == h.Config().ReadBuffers
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
