package ispvol

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/sched"
)

var errNoReader = errors.New("the source's host reader cannot be opened")

// noReader is a Source whose pages resolve but whose host reader
// cannot be opened. Neither Range nor File fails there today, so only
// this source drives run's last refusal branch.
type noReader struct{}

func (noReader) resolve(sys *System, _ []int) ([]core.PageAddr, int, error) {
	return []core.PageAddr{core.LinearPage(sys.c.Params, 0, 0)}, sys.c.Params.PageSize(), nil
}

func (noReader) reader(*System, int) (func(int, func([]byte, error)), error) {
	return nil, errNoReader
}

// TestHostMediatedReaderRefusal: a host-mediated query whose source
// cannot open its host reader fails with the source's error, completes
// exactly once and leaves the drain check clean (Sync checks both).
func TestHostMediatedReaderRefusal(t *testing.T) {
	c := coretest.NewCluster(t, core.DefaultParams(1))
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(c, s, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Sync(sys, func(done func(*SearchResult, error)) {
		sys.Search(0, noReader{}, []byte("x"), HostMediated, done)
	})
	if !errors.Is(err, errNoReader) {
		t.Fatalf("err = %v, want the source's reader error", err)
	}
}
