package ispvol

// Table scan kernel (the paper's §8 "SQL Database Acceleration"
// direction at cluster scale): selection and projection pushed down
// into every storage device that holds a shard of the table. A filter
// engine evaluates the predicate at line rate and only qualifying
// records cross the network to the origin; the host-mediated
// placement hauls every page over PCIe and filters in software.

import (
	"sort"

	"repro/internal/accel/tablescan"
	"repro/internal/rfs"
	"repro/internal/sim"
)

// ScanResult reports one table-scan query.
type ScanResult struct {
	Rows        int64 // rows scanned (all nodes)
	Matches     []tablescan.Record
	Pages       int
	FailedPages int
	BytesToHost int64 // data that crossed into the origin host's memory
	Elapsed     sim.Time
	RowsPerSec  float64
}

// TableScan returns the records of src that satisfy pred, ordered by
// ID. Asynchronous like Search; a predicate that fails Validate fails
// the query before any flash read.
func (sys *System) TableScan(origin int, src Source, pred tablescan.Predicate, pl Placement, done func(*ScanResult, error)) {
	if err := pred.Validate(); err != nil {
		done(nil, err)
		return
	}
	k := &scanKernel{scanPartial{pred: pred}}
	sys.run(origin, src, nil, k, pl, func(st queryStats, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(&ScanResult{
			Rows:        k.rows,
			Matches:     k.matches,
			Pages:       st.pages,
			FailedPages: st.failed,
			BytesToHost: st.toHost,
			Elapsed:     st.elapsed,
			RowsPerSec:  st.rate(float64(k.rows)),
		}, nil)
	})
}

// TableScanFile is TableScan(origin, File(f), pred, InStore, done)
// under the name the frozen benchmark (bench/) calls.
func (sys *System) TableScanFile(origin int, f *rfs.File, pred tablescan.Predicate, done func(*ScanResult, error)) {
	sys.TableScan(origin, File(f), pred, InStore, done)
}

// scanPartial is the qualifying records of the pages reduced so far.
type scanPartial struct {
	pred    tablescan.Predicate
	rows    int64
	matches []tablescan.Record
}

// scanKernel's origin state is itself a partial: the concatenation of
// the engines'.
type scanKernel struct{ scanPartial }

// startBytes: the predicate fits the header; a 16-byte address per page.
func (k *scanKernel) startBytes(refs int) int { return 32 + 16*refs }

func (k *scanKernel) newPartial(int, int) partial { return &scanPartial{pred: k.pred} }

func (k *scanKernel) hostCost(ps int) sim.Time {
	return sim.Time(tablescan.RecordsPerPage(ps)) * tablescan.HostFilterCPUPerRow
}

func (p *scanPartial) scan(_ pageRef, data []byte) bool {
	var rows int64
	var err error
	p.matches, rows, err = tablescan.FilterPage(p.matches, data, p.pred)
	p.rows += rows
	return err == nil
}

func (p *scanPartial) wireBytes() int { return 32 + tablescan.RecordSize*len(p.matches) }

func (k *scanKernel) merge(p partial) {
	m := p.(*scanPartial)
	k.rows += m.rows
	k.matches = append(k.matches, m.matches...)
}

func (k *scanKernel) finish(int, int) int {
	sort.Slice(k.matches, func(i, j int) bool { return k.matches[i].ID < k.matches[j].ID })
	return tablescan.RecordSize * len(k.matches)
}
