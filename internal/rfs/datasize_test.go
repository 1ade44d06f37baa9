package rfs

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/flashctl"
	"repro/internal/ftl"
	"repro/internal/sched"
	"repro/internal/volume"
)

// TestShortImageFailsWithOneSentinel: a write of a page shorter than a
// page image fails with flashctl.ErrDataSize whichever layer catches
// it — the page log under an FTL and under a file system, on one card
// and over the cluster, the volume above the card FTLs, and the host
// batch path beneath them all.
func TestShortImageFailsWithOneSentinel(t *testing.T) {
	short := []byte{1, 2}
	pending := errors.New("write never completed")
	rows := []struct {
		name  string
		write func(t *testing.T) error // issues the write and runs the simulation dry
	}{
		{"ftl", func(t *testing.T) error {
			r := newCardRig(t, smallGeo())
			f, err := ftl.New(r.port, smallGeo(), ftl.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			got := pending
			f.Write(0, short, func(err error) { got = err })
			r.eng.Run()
			return got
		}},
		{"rfs on a card", func(t *testing.T) error {
			h := newHarness(t, smallGeo())
			f, err := h.fs.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			return h.appendPage(t, f, short)
		}},
		{"rfs on the cluster", func(t *testing.T) error {
			c, _, fs := newClusterFS(t, 2, 4)
			f, err := fs.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			got := pending
			f.AppendPage(short, func(err error) { got = err })
			c.Run()
			return got
		}},
		{"volume stream", func(t *testing.T) error {
			c := coretest.NewCluster(t, clusterParams(2))
			s, err := sched.New(c, sched.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			v, err := volume.New(c, s, volume.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			st, err := v.NewStream("t", sched.Batch)
			if err != nil {
				t.Fatal(err)
			}
			got := pending
			st.Write(0, short, func(err error) { got = err })
			c.Run()
			return got
		}},
		{"core.SubmitHostBatch", func(t *testing.T) error {
			c := coretest.NewCluster(t, clusterParams(1))
			got := pending
			c.Node(0).SubmitHostBatch([]core.HostReq{{
				Addr: core.LinearPage(c.Params, 0, 0), Write: true, Data: short,
				Done: func(_ []byte, err error) { got = err },
			}}, nil)
			c.Run()
			return got
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if err := row.write(t); !errors.Is(err, flashctl.ErrDataSize) {
				t.Fatalf("a %d-byte page: %v, want flashctl.ErrDataSize", len(short), err)
			}
		})
	}
}
