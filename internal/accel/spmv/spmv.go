// Package spmv implements the "Sparse-Matrix Based Linear Algebra
// Acceleration" the paper lists as planned work (§8). A large sparse
// matrix in CSR-like form is packed into flash pages, row-group by
// row-group; the in-store processor streams the pages and multiplies
// against a dense vector held in the device DRAM buffer, emitting only
// the dense result — so a matrix far larger than host DRAM is consumed
// at flash bandwidth with no host involvement.
//
// Values are int64 (fixed-point), which is what an FPGA datapath would
// use and keeps the simulation exact. Both multiplies are a body over
// sim.Lanes: engines x window lanes in-store, one lane per host thread
// on the conventional path.
package spmv

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hostmodel"
	"repro/internal/sim"
)

// SpMV errors.
var (
	ErrBadPage   = errors.New("spmv: malformed matrix page")
	ErrDimension = errors.New("spmv: dimension mismatch")
	ErrTooDense  = errors.New("spmv: row group exceeds one page")
)

// entry is one non-zero: (row, col, value).
type entry struct {
	row, col uint32
	val      int64
}

// entrySize is the packed size of one non-zero.
const entrySize = 4 + 4 + 8

// Matrix is a sparse matrix stored across flash pages.
type Matrix struct {
	Rows, Cols int
	pages      [][]entry // non-zeros per page, row-major order
}

// EncodePage packs a page's non-zeros: count then entries.
func EncodePage(entries []entry, pageSize int) ([]byte, error) {
	if 4+len(entries)*entrySize > pageSize {
		return nil, fmt.Errorf("%w: %d entries", ErrTooDense, len(entries))
	}
	page := make([]byte, pageSize)
	binary.LittleEndian.PutUint32(page, uint32(len(entries)))
	off := 4
	for _, e := range entries {
		binary.LittleEndian.PutUint32(page[off:], e.row)
		binary.LittleEndian.PutUint32(page[off+4:], e.col)
		binary.LittleEndian.PutUint64(page[off+8:], uint64(e.val))
		off += entrySize
	}
	return page, nil
}

// DecodePage unpacks a matrix page.
func DecodePage(page []byte) ([]entry, error) {
	if len(page) < 4 {
		return nil, ErrBadPage
	}
	n := int(binary.LittleEndian.Uint32(page))
	if 4+n*entrySize > len(page) {
		return nil, fmt.Errorf("%w: count %d", ErrBadPage, n)
	}
	out := make([]entry, n)
	off := 4
	for i := range out {
		out[i].row = binary.LittleEndian.Uint32(page[off:])
		out[i].col = binary.LittleEndian.Uint32(page[off+4:])
		out[i].val = int64(binary.LittleEndian.Uint64(page[off+8:]))
		off += entrySize
	}
	return out, nil
}

// EntriesPerPage returns the page capacity in non-zeros.
func EntriesPerPage(pageSize int) int { return (pageSize - 4) / entrySize }

// BuildRandom generates a rows x cols matrix with ~nnzPerRow non-zeros
// per row and stores it on the node's flash.
//
//simlint:allow unused (the SpMV accelerator of the paper's §8, which ablation_test.go runs)
func BuildRandom(c *core.Cluster, nodeID, rows, cols, nnzPerRow int, seed uint64) (*Matrix, []core.PageAddr, error) {
	if rows <= 0 || cols <= 0 || nnzPerRow <= 0 {
		return nil, nil, fmt.Errorf("spmv: bad shape %dx%d @%d", rows, cols, nnzPerRow)
	}
	rng := sim.NewRNG(seed)
	m := &Matrix{Rows: rows, Cols: cols}
	ps := c.Params.PageSize()
	capPer := EntriesPerPage(ps)

	var current []entry
	flush := func() {
		if len(current) > 0 {
			m.pages = append(m.pages, current)
			current = nil
		}
	}
	for r := 0; r < rows; r++ {
		n := 1 + rng.Intn(2*nnzPerRow-1)
		for k := 0; k < n; k++ {
			if len(current) == capPer {
				flush()
			}
			current = append(current, entry{
				row: uint32(r),
				col: uint32(rng.Intn(cols)),
				val: int64(rng.Intn(2001) - 1000),
			})
		}
	}
	flush()

	if len(m.pages) > core.PagesPerNode(c.Params) {
		return nil, nil, fmt.Errorf("spmv: matrix needs %d pages, node has %d",
			len(m.pages), core.PagesPerNode(c.Params))
	}
	if err := c.SeedLinear(nodeID, len(m.pages), func(idx int, page []byte) {
		enc, err := EncodePage(m.pages[idx], ps)
		if err != nil {
			panic(err)
		}
		copy(page, enc)
	}); err != nil {
		return nil, nil, err
	}
	addrs := make([]core.PageAddr, len(m.pages))
	for i := range addrs {
		addrs[i] = core.LinearPage(c.Params, nodeID, i)
	}
	return m, addrs, nil
}

// Reference computes y = A*x in memory (the oracle).
//
//simlint:allow unused (reference model: the in-memory product the SpMV runners are checked against)
func (m *Matrix) Reference(x []int64) ([]int64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("%w: x has %d, matrix has %d cols", ErrDimension, len(x), m.Cols)
	}
	y := make([]int64, m.Rows)
	for _, p := range m.pages {
		for _, e := range p {
			y[e.row] += e.val * x[e.col]
		}
	}
	return y, nil
}

// Result reports one multiply.
type Result struct {
	Y           []int64
	Elapsed     sim.Time
	NNZPerSec   float64
	BytesToHost int64
}

// MultiplyISP runs y = A*x with the in-store processor: the dense
// vector is DMAed into the device DRAM buffer once, matrix pages
// stream from flash through the multiply-accumulate engines, and only
// the dense result returns to the host.
//
//simlint:allow unused (the SpMV accelerator of the paper's §8, which ablation_test.go runs)
func MultiplyISP(c *core.Cluster, nodeID int, m *Matrix, addrs []core.PageAddr, x []int64) (*Result, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("%w: x has %d, matrix has %d cols", ErrDimension, len(x), m.Cols)
	}
	node := c.Node(nodeID)
	y := make([]int64, m.Rows)
	start := c.Eng.Now()

	// Ship x to the device DRAM buffer.
	shipped := false
	node.Host.ChargeSoftware(func() {
		node.Host.RPC(func() {
			node.Host.DeviceReadBuffer(8*len(x), func() { shipped = true })
		})
	})
	c.Run()
	if !shipped {
		return nil, fmt.Errorf("spmv: vector upload never completed")
	}

	const engines = 16
	const window = 8
	nnz := int64(0)
	joined := false
	var readErr error
	sim.Lanes(len(addrs), engines*window, func(_, i int, next func()) {
		node.ISPReadDirect(addrs[i], func(data []byte, err error) {
			readErr = cmp.Or(readErr, err)
			if err == nil {
				if entries, derr := DecodePage(data); derr == nil {
					// MAC units run at stream rate: no extra time.
					for _, en := range entries {
						y[en.row] += en.val * x[en.col]
						nnz++
					}
				}
			}
			next()
		})
	}, func() { joined = true })
	c.Run()
	if readErr != nil {
		return nil, fmt.Errorf("spmv: ISP read: %w", readErr)
	}
	if !joined {
		return nil, fmt.Errorf("spmv: engines never finished")
	}

	// Dense result back to the host.
	resBytes := 8 * m.Rows
	returned := false
	node.Host.PageUp(resBytes, func() { returned = true })
	c.Run()
	if !returned {
		return nil, fmt.Errorf("spmv: result DMA never completed")
	}

	res := &Result{Y: y, Elapsed: c.Eng.Now() - start, BytesToHost: int64(resBytes)}
	if res.Elapsed > 0 {
		res.NNZPerSec = float64(nnz) / res.Elapsed.Seconds()
	}
	return res, nil
}

// macCPUPerNNZ is the host cost per multiply-accumulate, including the
// irregular gather on x.
const macCPUPerNNZ = 8 * sim.Nanosecond

// MultiplyHost is the conventional path: pages cross PCIe, the host
// multiplies in software with `threads` workers.
//
//simlint:allow unused (the SpMV accelerator of the paper's §8, which ablation_test.go runs)
func MultiplyHost(c *core.Cluster, nodeID int, m *Matrix, addrs []core.PageAddr, x []int64,
	cpu *hostmodel.CPU, threads int) (*Result, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("%w: x has %d, matrix has %d cols", ErrDimension, len(x), m.Cols)
	}
	node := c.Node(nodeID)
	y := make([]int64, m.Rows)
	ths := cpu.NewThreads(threads)
	start := c.Eng.Now()
	var nnz, toHost int64
	joined := false
	var readErr error
	sim.Lanes(len(addrs), len(ths), func(lane, i int, next func()) {
		a := addrs[i]
		node.ReadLocal(a.Card, a.Addr, func(data []byte, err error) {
			readErr = cmp.Or(readErr, err)
			if err != nil {
				next()
				return
			}
			node.Host.PageUp(len(data), func() {
				toHost += int64(len(data))
				entries, derr := DecodePage(data)
				if derr != nil {
					next()
					return
				}
				ths[lane].Do(sim.Time(len(entries))*macCPUPerNNZ, func() {
					for _, en := range entries {
						y[en.row] += en.val * x[en.col]
						nnz++
					}
					next()
				})
			})
		})
	}, func() { joined = true })
	c.Run()
	if readErr != nil {
		return nil, fmt.Errorf("spmv: host read: %w", readErr)
	}
	if !joined {
		return nil, fmt.Errorf("spmv: host threads never finished")
	}
	res := &Result{Y: y, Elapsed: c.Eng.Now() - start, BytesToHost: toHost}
	if res.Elapsed > 0 {
		res.NNZPerSec = float64(nnz) / res.Elapsed.Seconds()
	}
	return res, nil
}
