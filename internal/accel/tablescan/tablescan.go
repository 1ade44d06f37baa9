// Package tablescan implements the SQL database acceleration that the
// paper lists as planned work (§8: "SQL Database Acceleration by
// offloading query processing and filtering to in-store processors"),
// in the style the related-work section attributes to Ibex and
// IBM/Netezza: selection and projection pushed down into the storage
// device, so only qualifying records cross PCIe to the host.
//
// Records are fixed-size rows packed into flash pages; predicates are
// simple column comparisons the FPGA could evaluate at line rate. The
// in-store scan reads the table at flash bandwidth and returns matches
// only; the host baseline hauls every page over PCIe and filters in
// software. Both scans are a body over sim.Lanes — engines x window
// lanes in-store, one lane per host thread — around the one FilterPage
// kernel.
package tablescan

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Table-scan errors.
var (
	ErrBadRecord = errors.New("tablescan: malformed record page")
	ErrBadOp     = errors.New("tablescan: unknown comparison operator")
	ErrBadColumn = errors.New("tablescan: unknown column")
)

// Record is one fixed-size row: an id, two filterable integer columns,
// and an opaque payload (the projected data).
type Record struct {
	ID      uint64
	ColA    int64
	ColB    int64
	Payload [40]byte
}

// RecordSize is the packed size of one record.
const RecordSize = 8 + 8 + 8 + 40

// EncodeRecords packs records into one page image; the first 4 bytes
// hold the record count.
func EncodeRecords(recs []Record, pageSize int) ([]byte, error) {
	if 4+len(recs)*RecordSize > pageSize {
		return nil, fmt.Errorf("tablescan: %d records exceed a %d-byte page", len(recs), pageSize)
	}
	page := make([]byte, pageSize)
	binary.LittleEndian.PutUint32(page, uint32(len(recs)))
	off := 4
	for _, r := range recs {
		binary.LittleEndian.PutUint64(page[off:], r.ID)
		binary.LittleEndian.PutUint64(page[off+colAOffset:], uint64(r.ColA))
		binary.LittleEndian.PutUint64(page[off+colBOffset:], uint64(r.ColB))
		copy(page[off+24:], r.Payload[:])
		off += RecordSize
	}
	return page, nil
}

// recordCount checks a record page's header against its length and
// returns the number of rows it holds.
func recordCount(page []byte) (int, error) {
	if len(page) < 4 {
		return 0, ErrBadRecord
	}
	n := int(binary.LittleEndian.Uint32(page))
	if 4+n*RecordSize > len(page) {
		return 0, fmt.Errorf("%w: count %d", ErrBadRecord, n)
	}
	return n, nil
}

// Byte offsets of the filterable columns inside a packed record.
const (
	colAOffset = 8
	colBOffset = 16
)

// decodeRecord unpacks the row at the head of b.
func decodeRecord(b []byte) (r Record) {
	r.ID = binary.LittleEndian.Uint64(b)
	r.ColA = int64(binary.LittleEndian.Uint64(b[colAOffset:]))
	r.ColB = int64(binary.LittleEndian.Uint64(b[colBOffset:]))
	copy(r.Payload[:], b[24:RecordSize])
	return r
}

// RecordsPerPage returns the table's rows-per-page for a page size.
func RecordsPerPage(pageSize int) int { return (pageSize - 4) / RecordSize }

// Op is a comparison operator.
type Op uint8

// Comparison operators.
const (
	OpLT Op = iota
	OpLE
	OpEQ
	OpGE
	OpGT
)

// Column selects a filterable column.
type Column uint8

// Filterable columns.
const (
	ColA Column = iota
	ColB
)

// Predicate is one column comparison, the unit an in-store filter
// engine evaluates.
type Predicate struct {
	Col   Column
	Op    Op
	Value int64
}

// Validate reports a predicate no engine can evaluate: an unknown
// column (ErrBadColumn) or operator (ErrBadOp). Every scan entry point
// checks it before it reads a page, so a malformed predicate fails the
// query instead of answering it with no matches.
func (p Predicate) Validate() error {
	_, err := p.Eval(Record{})
	return err
}

// Eval applies the predicate to one record.
func (p Predicate) Eval(r Record) (bool, error) {
	switch p.Col {
	case ColA:
		return p.compare(r.ColA)
	case ColB:
		return p.compare(r.ColB)
	default:
		return false, fmt.Errorf("%w: %d", ErrBadColumn, p.Col)
	}
}

// compare applies the predicate's operator to a value of its column.
func (p Predicate) compare(v int64) (bool, error) {
	switch p.Op {
	case OpLT:
		return v < p.Value, nil
	case OpLE:
		return v <= p.Value, nil
	case OpEQ:
		return v == p.Value, nil
	case OpGE:
		return v >= p.Value, nil
	case OpGT:
		return v > p.Value, nil
	default:
		return false, fmt.Errorf("%w: %d", ErrBadOp, p.Op)
	}
}

// Result reports one scan.
type Result struct {
	Rows        int64 // rows scanned
	Matches     []Record
	Elapsed     sim.Time
	RowsPerSec  float64
	BytesToHost int64 // data that crossed PCIe
	CPUUtil     float64
}

// HostFilterCPUPerRow is the software predicate-evaluation cost per
// record, charged by the host-mediated scan paths (ScanHost here and
// the distributed host-mediated arm in internal/ispvol).
const HostFilterCPUPerRow = 60 * sim.Nanosecond

// FilterPage applies pred to one record page: the kernel an in-store
// filter engine evaluates at line rate, shared by the single-node
// ScanISP engines and the distributed ispvol engines. Like the engine,
// it reads only the predicate's column of each row, in place, and
// unpacks a row only when it matches. It appends the matching records
// to dst and returns the extended slice and the number of rows
// scanned, so a caller that keeps one match list allocates only when
// that list grows. An undecodable page is an error and leaves dst as
// it was; a row the predicate cannot evaluate (malformed Op/Col) is
// skipped but still counted as scanned, like a hardware filter dropping
// a row it cannot parse — one bad row must not discard the rest of the
// page. (The scan entry points refuse such a predicate up front; see
// Validate.)
func FilterPage(dst []Record, page []byte, pred Predicate) ([]Record, int64, error) {
	n, err := recordCount(page)
	if err != nil {
		return dst, 0, err
	}
	var col int
	switch pred.Col {
	case ColA:
		col = colAOffset
	case ColB:
		col = colBOffset
	default:
		return dst, int64(n), nil
	}
	for off := 4; off < 4+n*RecordSize; off += RecordSize {
		v := int64(binary.LittleEndian.Uint64(page[off+col:]))
		if ok, perr := pred.compare(v); perr == nil && ok {
			dst = append(dst, decodeRecord(page[off:]))
		}
	}
	return dst, int64(n), nil
}

// finish stamps a completed scan's timing.
func (res *Result) finish(node *core.Node, start sim.Time) *Result {
	res.Elapsed = node.Eng().Now() - start
	if res.Elapsed > 0 {
		res.RowsPerSec = float64(res.Rows) / res.Elapsed.Seconds()
	}
	res.CPUUtil = node.CPU.Utilization()
	return res
}

// ScanISP pushes the predicate into the storage device: in-store
// engines stream the table's pages from flash, filter at line rate,
// and DMA only matching records to the host.
func ScanISP(c *core.Cluster, nodeID int, pages []core.PageAddr, pred Predicate) (*Result, error) {
	if err := pred.Validate(); err != nil {
		return nil, err
	}
	node := c.Node(nodeID)
	res := &Result{}
	const engines = 16
	const window = 8
	start := c.Eng.Now()
	joined := false
	var readErr error
	sim.Lanes(len(pages), engines*window, func(_, i int, next func()) {
		node.ISPReadDirect(pages[i], func(data []byte, err error) {
			readErr = cmp.Or(readErr, err)
			if err == nil {
				had := len(res.Matches)
				var rows int64
				res.Matches, rows, _ = FilterPage(res.Matches, data, pred)
				res.Rows += rows
				res.BytesToHost += int64(len(res.Matches)-had) * RecordSize
			}
			next()
		})
	}, func() { joined = true })
	c.Run()
	if readErr != nil {
		return nil, fmt.Errorf("tablescan: ISP read: %w", readErr)
	}
	if !joined {
		return nil, fmt.Errorf("tablescan: ISP engines never finished")
	}
	// Matches DMA to the host as one stream (usually tiny).
	if res.BytesToHost > 0 {
		landed := false
		node.Host.PageUp(int(res.BytesToHost), func() { landed = true })
		c.Run()
		if !landed {
			return nil, fmt.Errorf("tablescan: match DMA never completed")
		}
	}
	return res.finish(node, start), nil
}

// ScanHost is the conventional path: every table page crosses PCIe and
// the host filters in software with `threads` worker threads.
func ScanHost(c *core.Cluster, nodeID int, pages []core.PageAddr, pred Predicate, threads int) (*Result, error) {
	if err := pred.Validate(); err != nil {
		return nil, err
	}
	node := c.Node(nodeID)
	res := &Result{}
	ths := node.CPU.NewThreads(threads)
	start := c.Eng.Now()
	rowsPerPage := RecordsPerPage(c.Params.PageSize())
	pageCost := sim.Time(rowsPerPage) * HostFilterCPUPerRow
	joined := false
	var readErr error
	sim.Lanes(len(pages), len(ths), func(lane, i int, next func()) {
		a := pages[i]
		node.ReadLocal(a.Card, a.Addr, func(data []byte, err error) {
			readErr = cmp.Or(readErr, err)
			if err != nil {
				next()
				return
			}
			// Page DMA to host, then software filtering.
			node.Host.PageUp(len(data), func() {
				res.BytesToHost += int64(len(data))
				ths[lane].Do(pageCost, func() {
					var rows int64
					res.Matches, rows, _ = FilterPage(res.Matches, data, pred)
					res.Rows += rows
					next()
				})
			})
		})
	}, func() { joined = true })
	c.Run()
	if readErr != nil {
		return nil, fmt.Errorf("tablescan: host read: %w", readErr)
	}
	if !joined {
		return nil, fmt.Errorf("tablescan: host threads never finished")
	}
	return res.finish(node, start), nil
}

// BuildTable seeds `pages` pages of synthetic rows on a node and
// returns their addresses. Column values are deterministic: ColA is
// uniform in [0, 1e6), ColB in [0, 100).
func BuildTable(c *core.Cluster, nodeID, pages int, seed uint64) ([]core.PageAddr, error) {
	ps := c.Params.PageSize()
	perPage := RecordsPerPage(ps)
	rng := sim.NewRNG(seed)
	nextID := uint64(0)
	if err := c.SeedLinear(nodeID, pages, func(idx int, page []byte) {
		recs := make([]Record, perPage)
		for i := range recs {
			recs[i] = Record{
				ID:   nextID,
				ColA: int64(rng.Intn(1_000_000)),
				ColB: int64(rng.Intn(100)),
			}
			nextID++
		}
		enc, err := EncodeRecords(recs, ps)
		if err != nil {
			panic(err)
		}
		copy(page, enc)
	}); err != nil {
		return nil, err
	}
	addrs := make([]core.PageAddr, pages)
	for i := range addrs {
		addrs[i] = core.LinearPage(c.Params, nodeID, i)
	}
	return addrs, nil
}
