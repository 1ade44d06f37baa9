package main

// file-scan: distributed in-store queries over files of the
// cluster-wide RFS — the paper's Figure 8 path. Two query loops issue
// SearchFile and TableScanFile back to back from rotating origin
// nodes; beside them one batch stream overwrites a third file, which
// keeps the segment cleaner running, and realtime probes read pages of
// the two scanned files through File.ReadPage.

import (
	"bytes"
	"fmt"

	"repro/internal/accel/tablescan"
	"repro/internal/core"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/sim"
)

type scanDims struct {
	nodes         int
	blocksPerChip int
	scanPages     int // pages in each of the two scanned files
	churnPages    int // pages in the overwritten file
	age           int // churn pages overwritten once before the load starts
	plants        int // needle occurrences planted per needle
	probeEvery    sim.Time
	warm          int64
	rate          int64
}

const (
	queryLoops      = 2
	churnDepth      = 32   // ops the churn stream keeps outstanding
	churnWriteRatio = 0.80 // churn-stream ops that overwrite; the rest read back
	churnSpace      = 3    // stamp space of the churn file
)

// The needles are upper case and the text is lower case, so the only
// occurrences are the planted ones.
var needles = [][]byte{
	[]byte("BLUEDBM"), []byte("FLASHSTORAGE"), []byte("ISCA"), []byte("INSTOREPROCESSOR"),
}

var predicates = []tablescan.Predicate{
	{Col: tablescan.ColA, Op: tablescan.OpLT, Value: 5},
	{Col: tablescan.ColA, Op: tablescan.OpEQ, Value: 777},
	{Col: tablescan.ColB, Op: tablescan.OpLT, Value: 200},
	{Col: tablescan.ColA, Op: tablescan.OpGE, Value: 996},
}

type scanLoad struct {
	d    *driver
	st   stamper
	dims scanDims
	stk  *stack
	isp  *ispvol.System

	text, table, churn *rfs.File
	probeText, probeTb *rfs.File // realtime handles
	textPages, tbPages [][]byte  // what the generator appended
	wantOffsets        [][]int64 // per needle, sorted
	wantIDs            [][]uint64
	rows               int64

	ver *versions // of the churn file's pages
}

func buildFileScan(dims scanDims, seed uint64, sz sizing) (*instance, error) {
	// Small flash (16-page segments, few per chip), so that the churn
	// file drives the cleaner into steady state within the warm-up.
	p := core.DefaultParams(dims.nodes)
	p.Geometry.BlocksPerChip = dims.blocksPerChip
	p.Geometry.PagesPerBlock = 16
	c, err := core.NewCluster(p)
	if err != nil {
		return nil, err
	}
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// Clean at a reserve scaled to the chip count, in 4-page stripe
	// extents so pages that die together share segments.
	fs, _, err := rfs.NewClusterFS(c, s, rfs.ClusterConfig{}, rfs.Config{CleanLowWater: 16, StripeExtent: 4})
	if err != nil {
		return nil, err
	}
	isp, err := ispvol.New(c, s, nil, ispvol.DefaultConfig())
	if err != nil {
		return nil, err
	}
	w := &scanLoad{st: stamper{seed: seed}, dims: dims, stk: &stack{c: c, s: s, fs: fs}, isp: isp}
	ps := fs.PageSize()
	w.ver = newVersions(&w.st, churnSpace, dims.churnPages, ps)
	w.genText(seed, ps)
	if err := w.genTable(seed, ps); err != nil {
		return nil, err
	}

	// The scanned files are appended on the interactive lane and the
	// churn file on the batch lane: RFS gives each class its own
	// segments, so the scanned files' segments stay fully valid, the
	// cleaner never moves them, and the physical addresses a running
	// query holds stay good.
	mk := func(name string, class sched.Class) (*rfs.File, error) {
		f, err := fs.Create(name)
		if err != nil {
			return nil, err
		}
		return f.At(class), nil
	}
	if w.text, err = mk("text", sched.Interactive); err != nil {
		return nil, err
	}
	if w.table, err = mk("table", sched.Interactive); err != nil {
		return nil, err
	}
	if w.churn, err = mk("churn", sched.Batch); err != nil {
		return nil, err
	}
	w.probeText, w.probeTb = w.text.At(sched.Realtime), w.table.At(sched.Realtime)
	// Appends take their page index at call time, so pipelining them
	// keeps the order. Then age the churn file: overwrite dims.age
	// scattered pages of it once, which uses up the segments the appends
	// left free, so that the cleaner is already running when the
	// warm-up starts.
	fill := func(f *rfs.File, n int, call func(i int, done func(error))) error {
		if err := pipelined(c.Eng, 32, n, call); err != nil {
			return fmt.Errorf("fill %s: %w", f.Name(), err)
		}
		return nil
	}
	err = fill(w.text, len(w.textPages), func(i int, done func(error)) { w.text.AppendPage(w.textPages[i], done) })
	if err == nil {
		err = fill(w.table, len(w.tbPages), func(i int, done func(error)) { w.table.AppendPage(w.tbPages[i], done) })
	}
	if err == nil {
		err = fill(w.churn, dims.churnPages, func(i int, done func(error)) { w.churn.AppendPage(w.ver.settled(i, 0), done) })
	}
	if err == nil {
		err = fill(w.churn, dims.age, func(i int, done func(error)) {
			page := scatter(i, dims.churnPages)
			w.churn.WritePage(page, w.ver.settled(page, 1), done)
		})
	}
	if err != nil {
		return nil, err
	}

	d := newDriver(c.Eng, "rfs", dims.probeEvery)
	w.d = d
	d.issue, d.newOp = w.issue, w.newOp
	for l := 0; l < queryLoops; l++ {
		str := d.addStream(l%dims.nodes, sched.Accel, 1, picker{}, newRNG(seed^mix64(uint64(l)+1)))
		str.nseq = uint64(l) // stagger the loops over the query rotation
	}
	r := newRNG(seed ^ mix64(0xc4a2))
	d.addStream(0, sched.Batch, churnDepth, picker{pat: patUniform, n: dims.churnPages, r: r}, r)
	for n := 0; n < dims.nodes; n++ {
		r := newRNG(seed ^ mix64(0x9b0be<<20|uint64(n)))
		d.addProbe(n, picker{pat: patUniform, n: 2 * dims.scanPages, r: r}, r)
	}
	return &instance{d: d, st: w.stk, warm: dims.warm, window: sz.window(dims.rate)}, nil
}

// genText fills the text file with lower-case noise and plants each
// needle dims.plants times at offsets only the generator knows: one
// plant per equal slot of the file, every eighth of a needle's straddling a page
// boundary, where no single engine sees the whole occurrence.
func (w *scanLoad) genText(seed uint64, ps int) {
	r := newRNG(seed ^ mix64(0x7e87))
	total := w.dims.scanPages * ps
	text := make([]byte, total)
	const alphabet = "abcdefghijklmnopqrstuvwxyz      "
	for i := 0; i < total; i += 8 {
		v := r.next()
		for j := 0; j < 8; j++ {
			text[i+j] = alphabet[v&31]
			v >>= 8
		}
	}
	w.wantOffsets = make([][]int64, len(needles))
	plants := w.dims.plants * len(needles)
	slot := total / plants
	for j := 0; j < plants; j++ {
		k := j % len(needles)
		nd := needles[k]
		lo := j * slot
		off := lo + r.intn(slot-len(nd))
		if j/len(needles)%8 == 0 {
			// The first page boundary inside (or at the end of) the slot.
			edge := (lo/ps + 1) * ps
			if edge+len(nd) < total {
				off = edge - 1 - r.intn(len(nd)-1)
			}
		}
		copy(text[off:], nd)
		w.wantOffsets[k] = append(w.wantOffsets[k], int64(off))
	}
	for i := 0; i < w.dims.scanPages; i++ {
		w.textPages = append(w.textPages, text[i*ps:(i+1)*ps])
	}
}

// genTable packs rows with generator-known column values and notes
// which row IDs each predicate selects.
func (w *scanLoad) genTable(seed uint64, ps int) error {
	per := tablescan.RecordsPerPage(ps)
	w.wantIDs = make([][]uint64, len(predicates))
	recs := make([]tablescan.Record, per)
	for p := 0; p < w.dims.scanPages; p++ {
		for i := range recs {
			id := uint64(p*per + i)
			h := mix64(seed ^ mix64(id+0x7ab1e))
			rec := tablescan.Record{ID: id, ColA: int64(h % 1000), ColB: int64(h >> 20 % 100000)}
			for j := range rec.Payload {
				rec.Payload[j] = byte(h >> (8 * (j % 8)))
			}
			recs[i] = rec
			for k, pred := range predicates {
				if ok, _ := pred.Eval(rec); ok {
					w.wantIDs[k] = append(w.wantIDs[k], id)
				}
			}
		}
		page, err := tablescan.EncodeRecords(recs, ps)
		if err != nil {
			return err
		}
		w.tbPages = append(w.tbPages, page)
	}
	w.rows = int64(w.dims.scanPages * per)
	return nil
}

func (w *scanLoad) newOp(str *stream) *op {
	o := &op{str: str}
	o.rcb = func(data []byte, err error) {
		ok := err == nil
		switch {
		case !ok:
		case str.probe && o.page < w.dims.scanPages:
			ok = bytes.Equal(data, w.textPages[o.page])
		case str.probe:
			ok = bytes.Equal(data, w.tbPages[o.page-w.dims.scanPages])
		default:
			ok = w.ver.check(data, o.page, o.ver)
		}
		w.d.done(o, 1, ok)
	}
	o.wcb = func(err error) {
		w.ver.wrote(o.page, o.ver, err)
		if err == nil {
			w.stk.hostWrites++
		}
		w.d.done(o, 1, err == nil)
	}
	return o
}

func (w *scanLoad) issue(o *op) {
	str := o.str
	switch {
	case str.class == sched.Accel:
		w.query(o)
	case str.probe:
		o.page = str.pick.pick()
		w.d.begin(o, 1, opRead)
		if o.page < w.dims.scanPages {
			w.probeText.ReadPage(o.page, o.rcb)
		} else {
			w.probeTb.ReadPage(o.page-w.dims.scanPages, o.rcb)
		}
	default:
		o.page = str.pick.pick()
		if str.r.float() < churnWriteRatio {
			o.page = w.ver.idle(o.page, 0, w.dims.churnPages, 1)
			o.ver = w.ver.next(o.page)
			w.d.begin(o, 1, opWrite)
			w.churn.WritePage(o.page, w.ver.buf, o.wcb)
			return
		}
		o.ver = w.ver.floor(o.page)
		w.d.begin(o, 1, opRead)
		w.churn.ReadPage(o.page, o.rcb)
	}
}

// query runs the stream's next query: searches and table scans
// alternate, the needle or predicate and the origin node rotate. A
// query counts as one page op per page scanned, and every one of them
// fails if the merged result is not exactly what the generator planted.
func (w *scanLoad) query(o *op) {
	pages := int64(w.dims.scanPages)
	origin := int(o.seq) % w.dims.nodes
	o.node = origin
	k := int(o.seq/2) % len(needles)
	tot := &w.stk.isp
	if o.seq%2 == 0 {
		w.d.begin(o, pages, opSearch)
		w.isp.SearchFile(origin, w.text, needles[k], func(res *ispvol.SearchResult, err error) {
			ok := err == nil && res.FailedPages == 0 && len(res.Matches) == len(w.wantOffsets[k])
			if ok {
				for i, m := range res.Matches {
					if m != w.wantOffsets[k][i] {
						ok = false
						break
					}
				}
			}
			if res != nil {
				tot.queries++
				tot.pagesScanned += int64(res.Pages)
				tot.failedPages += int64(res.FailedPages)
				tot.bytesToHost += 8 * int64(len(res.Matches))
			}
			w.d.done(o, pages, ok)
		})
		return
	}
	w.d.begin(o, pages, opTableScan)
	w.isp.TableScanFile(origin, w.table, predicates[k], func(res *ispvol.ScanResult, err error) {
		ok := err == nil && res.FailedPages == 0 && res.Rows == w.rows && len(res.Matches) == len(w.wantIDs[k])
		if ok {
			for i, m := range res.Matches {
				if m.ID != w.wantIDs[k][i] {
					ok = false
					break
				}
			}
		}
		if res != nil {
			tot.queries++
			tot.pagesScanned += int64(res.Pages)
			tot.failedPages += int64(res.FailedPages)
			tot.bytesToHost += res.BytesToHost
		}
		w.d.done(o, pages, ok)
	})
}
