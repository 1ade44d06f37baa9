package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// testSpec is a two-node appliance small enough to seed in
// milliseconds; tests switch layers on from here. Every composed stack
// runs under the image guard: an operation that finds a stored page
// image written to panics on the spot.
func testSpec() StackSpec {
	p := core.DefaultParams(2)
	p.Geometry.BlocksPerChip = 4
	p.Geometry.PagesPerBlock = 8
	p.Reliability.GuardImages = true
	return StackSpec{Params: p, Sched: sched.DefaultConfig()}
}

func withVolume(spec StackSpec) StackSpec {
	fcfg := ftl.DefaultConfig()
	spec.FTL = &fcfg
	return spec
}

// seededVolumeStack is the stack the driver tests run on.
func seededVolumeStack(t *testing.T) *Stack {
	t.Helper()
	st, err := Build(withVolume(testSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Seed(RandomPages(3)); err != nil {
		t.Fatal(err)
	}
	checkAtEnd(t, st)
	return st
}

// checkAtEnd runs the stack's drain checks when the test ends: no
// event pending, no image a card stores written to, no pooled record
// out, every reclaimer drained.
func checkAtEnd(t *testing.T, st *Stack) {
	t.Cleanup(func() {
		if err := st.Check(); err != nil {
			t.Error(err)
		}
	})
}

// TestBuildCompositions: every layer combination the spec can name
// builds, takes a seeding, and returns the seeded bytes through its
// top surface — the stack's stream for page surfaces, the file for the
// file system.
func TestBuildCompositions(t *testing.T) {
	ccfg := cache.DefaultConfig(64)
	rcfg, icfg := rfs.DefaultConfig(), ispvol.DefaultConfig()
	cases := []struct {
		name string
		edit func(*StackSpec)
	}{
		{"volume", func(s *StackSpec) {}},
		{"volume+mirror", func(s *StackSpec) { s.Mirror = true }},
		{"volume+cache", func(s *StackSpec) { s.Cache = &ccfg }},
		{"volume+mirror+cache", func(s *StackSpec) { s.Mirror, s.Cache = true, &ccfg }},
		{"volume+isp", func(s *StackSpec) { s.ISP = &icfg }},
		{"rfs", func(s *StackSpec) { s.FTL, s.RFS = nil, &rcfg }},
		{"rfs+isp", func(s *StackSpec) { s.FTL, s.RFS, s.ISP = nil, &rcfg, &icfg }},
	}
	fill := RandomPages(11)
	const probe = 37
	want := make([]byte, testSpec().Params.PageSize())
	fill(probe, want)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := withVolume(testSpec())
			tc.edit(&spec)
			st, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			checkAtEnd(t, st)
			if (st.V != nil) != (spec.FTL != nil) || (st.Cache != nil) != (spec.Cache != nil) ||
				(st.FS != nil) != (spec.RFS != nil) || (st.ISP != nil) != (spec.ISP != nil) {
				t.Fatalf("built layers do not match the spec: %+v", st)
			}
			var got []byte
			var rerr error
			keep := func(data []byte, err error) { got, rerr = append([]byte(nil), data...), err }
			if st.FS != nil {
				f, err := st.FS.Create("data")
				if err != nil {
					t.Fatal(err)
				}
				if err := st.SeedFile(f.AppendPage, 64, fill); err != nil {
					t.Fatal(err)
				}
				f.ReadPage(probe, keep)
			} else {
				if err := st.Seed(fill); err != nil {
					t.Fatal(err)
				}
				rw, err := st.Stream("check", 1, sched.Interactive)
				if err != nil {
					t.Fatal(err)
				}
				rw.Read(probe, keep)
			}
			st.C.Run()
			if rerr != nil || !bytes.Equal(got, want) {
				t.Fatalf("page %d read back wrong (err %v)", probe, rerr)
			}
		})
	}
}

// TestBuildRefusesImpossibleSpecs: a layer without the layer it stands
// on is an error, not a panic.
func TestBuildRefusesImpossibleSpecs(t *testing.T) {
	ccfg, rcfg, icfg := cache.DefaultConfig(8), rfs.DefaultConfig(), ispvol.DefaultConfig()
	for name, edit := range map[string]func(*StackSpec){
		"cache without a volume":  func(s *StackSpec) { s.Cache = &ccfg },
		"mirror without a volume": func(s *StackSpec) { s.Mirror = true },
		"isp with neither source": func(s *StackSpec) { s.ISP = &icfg },
		"volume beside rfs":       func(s *StackSpec) { *s = withVolume(*s); s.RFS = &rcfg },
	} {
		spec := testSpec()
		edit(&spec)
		if st, err := Build(spec); err == nil {
			t.Errorf("%s: built %+v", name, st)
		}
	}
	st, err := Build(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Stream("s", 0, sched.Interactive); err == nil {
		t.Error("a stack with no volume opened a page stream")
	}
	if err := st.Seed(RandomPages(1)); err == nil {
		t.Error("a stack with no volume was seeded")
	}
}

// TestVolumeBesideRFSRefusedForTheFlash pins why Build refuses the
// pair: mounted alone, each layer owns every erase block of every card,
// so together they would program and erase each other's flash — and the
// refusal says so.
func TestVolumeBesideRFSRefusedForTheFlash(t *testing.T) {
	spec, rcfg := testSpec(), rfs.DefaultConfig()
	g := spec.Params.Geometry
	blocks := spec.Params.Nodes * spec.Params.CardsPerNode * g.Buses * g.ChipsPerBus * g.BlocksPerChip

	vol, err := Build(withVolume(spec))
	if err != nil {
		t.Fatal(err)
	}
	ftlBlocks := 0
	for i := 0; i < vol.V.Cards(); i++ {
		ftlBlocks += vol.V.FTL(i).FreeBlocks()
	}
	fsSpec := spec
	fsSpec.RFS = &rcfg
	fs, err := Build(fsSpec)
	if err != nil {
		t.Fatal(err)
	}
	if ftlBlocks != blocks || fs.FS.FreeSegments() != blocks {
		t.Fatalf("of %d erase blocks the volume's FTLs own %d and the file system's log %d; the refusal's reason is that each owns all",
			blocks, ftlBlocks, fs.FS.FreeSegments())
	}

	both := withVolume(spec)
	both.RFS = &rcfg
	if _, err := Build(both); err == nil || !strings.Contains(err.Error(), "erase block") {
		t.Fatalf("volume beside rfs: err = %v, want a refusal that names the shared erase blocks", err)
	}
}

// digestRW is a page surface that hashes each completion of the surface
// it wraps: the request's issue index, its virtual completion time and
// whether it failed. Wrappers that share h and next share one digest.
type digestRW struct {
	rw   PageRW
	eng  *sim.Engine
	h    hash.Hash
	next *uint64
}

func (d digestRW) Read(lpn int, cb func([]byte, error)) {
	id := d.issue()
	d.rw.Read(lpn, func(data []byte, err error) { d.done(id, err); cb(data, err) })
}

func (d digestRW) Write(lpn int, data []byte, cb func(error)) {
	id := d.issue()
	d.rw.Write(lpn, data, func(err error) { d.done(id, err); cb(err) })
}

func (d digestRW) issue() uint64 {
	*d.next++
	return *d.next
}

func (d digestRW) done(id uint64, err error) {
	var rec [17]byte
	binary.LittleEndian.PutUint64(rec[:8], id)
	binary.LittleEndian.PutUint64(rec[8:16], uint64(d.eng.Now()))
	if err != nil {
		rec[16] = 1
	}
	d.h.Write(rec[:])
}

// TestIdleCacheCostsNothing: a cache attached above a volume that
// serves no traffic moves nothing below it. One volume spec is built
// twice, the second time with a cache attached, and identical read and
// write traffic runs on volume streams of both: every completion must
// land at the same virtual time, and the engine must fire as many
// events.
func TestIdleCacheCostsNothing(t *testing.T) {
	run := func(attach bool) ([]byte, uint64) {
		st, err := Build(withVolume(testSpec()))
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			if err := st.AttachCache(cache.DefaultConfig(64)); err != nil {
				t.Fatal(err)
			}
		}
		checkAtEnd(t, st)
		if err := st.Seed(RandomPages(5)); err != nil {
			t.Fatal(err)
		}
		h, next := sha256.New(), uint64(0)
		pages := st.V.Pages()
		var specs []ClientSpec
		for i, cl := range []sched.Class{sched.Realtime, sched.Interactive, sched.Batch} {
			vs, err := st.V.NewStream(cl.String(), cl)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, ClientSpec{Name: cl.String(), Seed: uint64(i + 1),
				RW:   digestRW{rw: vs, eng: st.C.Eng, h: h, next: &next},
				Pick: PickHotCold(pages, pages/8, 0, 0.3)})
		}
		res, err := st.Run(specs, 4, 200, nil)
		if err != nil || res.Loop.Errors > 0 {
			t.Fatalf("run: %v, %d errors", err, res.Loop.Errors)
		}
		return h.Sum(nil), st.C.Eng.Fired()
	}
	bare, bareFired := run(false)
	cached, cachedFired := run(true)
	if !bytes.Equal(bare, cached) || bareFired != cachedFired {
		t.Fatalf("an idle cache moved the volume's traffic: digest %x → %x, events %d → %d",
			bare[:8], cached[:8], bareFired, cachedFired)
	}
}

// TestMeasureWindowsExcludeSetup: a window's per-layer numbers cover
// the measured run only, and a run with failed requests is refused.
func TestMeasureWindowsExcludeSetup(t *testing.T) {
	spec := withVolume(testSpec())
	ccfg := cache.DefaultConfig(32)
	spec.Cache = &ccfg
	st, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Seed(RandomPages(3)); err != nil {
		t.Fatal(err)
	}
	rw, err := st.Stream("rd", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	pages := st.V.Pages()
	w, err := st.Measure([]ClientSpec{{Name: "rd", RW: rw, Pick: PickRead(pages), Seed: 1}}, 2, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Volume.HostWrites != 0 {
		t.Fatalf("window counted %d seeding writes", w.Volume.HostWrites)
	}
	if got := w.Cache.Hits + w.Cache.Misses; got != 40 {
		t.Fatalf("cache saw %d reads in the window, want 40", got)
	}
	if w.Run.Loop.Completed != 40 || w.Sched.ElapsedMs <= 0 || w.Host.DRAMTransfers == 0 {
		t.Fatalf("incomplete window: %+v", w)
	}
	// Reads beyond the volume fail; the window must say so.
	if _, err := st.Measure([]ClientSpec{{Name: "oob", RW: rw,
		Pick: func(*sim.RNG, int) func() (int, []byte) {
			return func() (int, []byte) { return pages + 5, nil }
		}}}, 1, 4, nil); err == nil {
		t.Fatal("a window with failed requests was accepted")
	}
}

// TestHostReadsReachFlashConserve: every page a host interface carries
// up is a flash read that a volume read or a relocation issued, on a
// drained two-node volume stack (no cache, no mirror) churned into
// garbage collection: Σ hostif PagesUp = Σ log (Reads − ReadFaults +
// Moves + Dropped) − the scheduler's coalesced reads. A read that
// fails at the flash lands nothing in host memory, and a coalesced
// read rides the flash read of the one it joined. A read of an
// unmapped page fails with ftl.ErrUnmapped before the log and moves no
// term; no layer counts such reads, so the test counts the ones it
// makes (of trimmed pages) itself.
func TestHostReadsReachFlashConserve(t *testing.T) {
	st := seededVolumeStack(t)
	pages := st.V.Pages()
	// delivered is Σ log (Reads − ReadFaults + Moves + Dropped) and up
	// Σ hostif PagesUp, both since the stack was built.
	counts := func() (delivered, up int64) {
		for i := 0; i < st.V.Cards(); i++ {
			l := st.V.FTL(i).Log
			delivered += l.Reads - l.ReadFaults + l.Moves + l.Dropped
		}
		for n := 0; n < st.C.Nodes(); n++ {
			up += st.C.Node(n).Host.PagesUp.Value()
		}
		return delivered, up
	}
	delivered0, up0 := counts()
	var specs []ClientSpec
	for node := 0; node < st.C.Nodes(); node++ {
		rw, err := st.Stream(fmt.Sprintf("n%d", node), node, sched.Interactive)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, ClientSpec{Name: fmt.Sprintf("n%d", node), RW: rw,
			Pick: PickHotCold(pages, pages/8, 0.9, 0.7), Seed: uint64(node + 1)})
	}
	w, err := st.Measure(specs, 16, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	trimmer, err := st.V.NewStream("trim", sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	unmapped := 0
	for lpn := range 8 {
		if err := trimmer.Trim(lpn); err != nil {
			t.Fatal(err)
		}
		trimmer.Read(lpn, func(_ []byte, err error) {
			if !errors.Is(err, ftl.ErrUnmapped) {
				t.Errorf("read of trimmed page %d: %v, want ftl.ErrUnmapped", lpn, err)
			}
			unmapped++
		})
	}
	// Two streams on one node read one mapped page in the same instant:
	// the second joins the first in the scheduler's queue, so the
	// coalesced term is exercised whatever the window coalesced.
	pairBefore := st.S.Snapshot().Coalesced
	for i := range 2 {
		rw, err := st.Stream(fmt.Sprintf("pair%d", i), 0, sched.Interactive)
		if err != nil {
			t.Fatal(err)
		}
		rw.Read(pages-1, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("pair read %d: %v", i, err)
			}
		})
	}
	st.C.Run()
	if unmapped != 8 {
		t.Fatalf("%d of 8 reads of trimmed pages completed", unmapped)
	}
	coalesced := st.S.Snapshot().Coalesced // since Measure reset the scheduler's stats
	if pair := coalesced - pairBefore; w.Volume.HostReads == 0 || w.Volume.GCMoves == 0 || pair < 1 {
		t.Fatalf("test premise: %d volume reads, %d GC moves, %d of the pair's reads coalesced", w.Volume.HostReads, w.Volume.GCMoves, pair)
	}
	delivered, up := counts()
	if delivered, up := delivered-delivered0-coalesced, up-up0; up != delivered {
		t.Errorf("hostif carried %d pages up; the logs' delivered reads less %d coalesced ones are %d", up, coalesced, delivered)
	}
}

// TestCacheCountersConserve: on a cached stack every volume read of a
// window is one cache miss's fill, and every volume write is a flush or
// a write-through, once per copy on a mirrored volume. Each window
// follows a warm-up and ends drained, no frame dirty or in flush, so no
// write-back straddles its edges.
func TestCacheCountersConserve(t *testing.T) {
	for _, mirror := range []bool{false, true} {
		for _, capacity := range []int{4, 16, 64} {
			for _, overwrite := range []float64{0, 0.3, 0.9} {
				name := fmt.Sprintf("cap%d/ovw%.1f", capacity, overwrite)
				if mirror {
					name = "mirror/" + name
				}
				t.Run(name, func(t *testing.T) {
					spec := withVolume(testSpec())
					ccfg := cache.DefaultConfig(capacity)
					spec.Mirror, spec.Cache = mirror, &ccfg
					st, err := Build(spec)
					if err != nil {
						t.Fatal(err)
					}
					checkAtEnd(t, st)
					if err := st.Seed(RandomPages(9)); err != nil {
						t.Fatal(err)
					}
					pages := st.V.Pages()
					var specs []ClientSpec
					for node := 0; node < st.C.Nodes(); node++ {
						rw, err := st.Stream(fmt.Sprintf("n%d", node), node, sched.Interactive)
						if err != nil {
							t.Fatal(err)
						}
						specs = append(specs, ClientSpec{Name: fmt.Sprintf("n%d", node), RW: rw,
							Pick: PickHotCold(pages, pages/4, 0, overwrite), Seed: uint64(node + 1)})
					}
					var w Window
					for _, requests := range []int{128, 256} { // warm-up, then the window
						if w, err = st.Measure(specs, 4, requests, nil); err != nil {
							t.Fatal(err)
						}
						if w.Cache.DirtyPages != 0 {
							t.Fatalf("window ended with %d frames dirty or in flush", w.Cache.DirtyPages)
						}
					}
					copies := int64(1)
					if mirror {
						copies = 2
					}
					v, c := w.Volume, w.Cache
					if v.HostReads != c.Misses {
						t.Errorf("%d volume reads against %d cache misses", v.HostReads, c.Misses)
					}
					if want := copies * (c.Flushes + c.WriteThroughs); v.HostWrites != want {
						t.Errorf("%d volume writes, want %d × (%d flushes + %d write-throughs) = %d",
							v.HostWrites, copies, c.Flushes, c.WriteThroughs, want)
					}
				})
			}
		}
	}
}
