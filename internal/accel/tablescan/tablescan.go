// Package tablescan is the kernel of the SQL database acceleration
// that the paper lists as planned work (§8: "SQL Database Acceleration
// by offloading query processing and filtering to in-store
// processors"), in the style the related-work section attributes to
// Ibex and IBM/Netezza: selection and projection pushed down into the
// storage device, so only qualifying records cross PCIe to the host.
//
// Records are fixed-size rows packed into flash pages; predicates are
// simple column comparisons the FPGA could evaluate at line rate. The
// package holds the record format, the predicate, the FilterPage
// kernel and the host's CPU cost per row; the query that runs the
// kernel in store or on the host is ispvol.TableScan.
package tablescan

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Table-scan errors.
var (
	ErrBadRecord    = errors.New("tablescan: malformed record page")
	ErrBadOp        = errors.New("tablescan: unknown comparison operator")
	ErrBadColumn    = errors.New("tablescan: unknown column")
	ErrPageOverflow = errors.New("tablescan: records exceed a page")
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
		return nil, fmt.Errorf("%w: %d records in a %d-byte page", ErrPageOverflow, len(recs), pageSize)
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
// column (ErrBadColumn) or operator (ErrBadOp). ispvol.TableScan
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

// HostFilterCPUPerRow is the software predicate-evaluation cost per
// record, charged by ispvol.TableScan's host-mediated placement.
const HostFilterCPUPerRow = 60 * sim.Nanosecond

// FilterPage applies pred to one record page: the kernel an in-store
// filter engine evaluates at line rate, run by ispvol's engines in
// store and by its host-mediated loop. Like the engine, it reads only
// the predicate's column of each row, in place, and unpacks a row only
// when it matches. It appends the matching records
// to dst and returns the extended slice and the number of rows
// scanned, so a caller that keeps one match list allocates only when
// that list grows. An undecodable page is an error and leaves dst as
// it was; a row the predicate cannot evaluate (malformed Op/Col) is
// skipped but still counted as scanned, like a hardware filter dropping
// a row it cannot parse — one bad row must not discard the rest of the
// page. (ispvol.TableScan refuses such a predicate up front; see
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
