package main

// The load driver all five workloads share: closed-loop bulk streams,
// open-loop realtime probes paced in virtual time, completion
// accounting, the completion digest, and the optional span recorder.
// One goroutine steps the engine; nothing here reads the wall clock.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"repro/internal/sched"
	"repro/internal/sim"
)

// The closed-loop shape every workload uses unless it says otherwise:
// 8 streams per node, 8 ops outstanding per stream, classes dealt
// 1 realtime : 3 interactive : 4 batch, address patterns dealt
// uniform / zipfian / sequential round-robin over all streams.
const (
	streamsPerNode = 8
	streamDepth    = 8
)

var classDeal = [streamsPerNode]sched.Class{
	sched.Realtime,
	sched.Interactive, sched.Interactive, sched.Interactive,
	sched.Batch, sched.Batch, sched.Batch, sched.Batch,
}

// retryDelay is the back-off before re-admitting an op the scheduler
// refused with ErrBackpressure (the same 5 µs the volume layer uses).
const retryDelay = 5 * sim.Microsecond

// opCode names what a span's call did.
type opCode uint8

const (
	opRead opCode = iota
	opWrite
	opSearch
	opTableScan
)

func (c opCode) String() string {
	return [...]string{"read", "write", "search", "tablescan"}[c]
}

// layer is the layer a span of this op is a call into: queries enter
// ispvol, page ops the workload's top layer.
func (c opCode) layer(top string) string {
	if c == opSearch || c == opTableScan {
		return "ispvol"
	}
	return top
}

// op is one outstanding call into the workload's top layer. Bulk
// streams own a fixed set of ops (their depth); probe streams grow a
// free list. The callbacks are bound once, when the op is made, so
// the driver allocates nothing per call.
type op struct {
	str   *stream
	node  int      // issuing node; a query's origin
	seq   uint64   // op id within the stream
	page  int      // workload-defined page number
	ver   uint64   // reads: version floor taken at issue; writes: version written
	start sim.Time // issue time; for probes the due time
	span  int32

	rcb   func(data []byte, err error)
	wcb   func(err error)
	again func() // re-admit after scheduler backpressure
}

// stream is one client: a closed-loop bulk stream or a paced probe.
type stream struct {
	id    int
	node  int
	class sched.Class
	probe bool
	depth int // bulk: ops kept outstanding
	pick  picker
	r     *rng
	nseq  uint64
	ops   []*op // bulk: the stream's window; probe: free ops
	tick  func()
}

// driver runs the streams against one stack.
type driver struct {
	eng *sim.Engine
	// issue chooses an op's page and direction, calls begin, then
	// calls into the top layer; the completion ends in done.
	issue   func(o *op)
	newOp   func(str *stream) *op
	layer   string // top layer spans are recorded against
	streams []*stream

	probeEvery sim.Time

	attempted int64 // page ops issued
	completed int64 // page ops finished, failed ones included
	failed    int64 // finished with an error or failed verification
	stop      bool  // stop issuing; outstanding ops drain

	measuring bool
	lat       []int64 // probe latencies inside the window, ns

	dig    hash.Hash
	digBuf []byte

	rec *recorder // nil unless tracing
}

func newDriver(eng *sim.Engine, layer string, probeEvery sim.Time) *driver {
	return &driver{
		eng:        eng,
		layer:      layer,
		probeEvery: probeEvery,
		dig:        sha256.New(),
		digBuf:     make([]byte, 0, 4096),
		lat:        make([]int64, 0, 1<<16),
	}
}

// addStream registers a closed-loop stream keeping depth ops outstanding.
func (d *driver) addStream(node int, class sched.Class, depth int, pick picker, r *rng) *stream {
	str := &stream{id: len(d.streams), node: node, class: class, depth: depth, pick: pick, r: r}
	d.streams = append(d.streams, str)
	return str
}

// addProbe registers a realtime probe stream issuing from node.
func (d *driver) addProbe(node int, pick picker, r *rng) *stream {
	str := d.addStream(node, sched.Realtime, 0, pick, r)
	str.probe = true
	str.tick = func() {
		if d.stop {
			return
		}
		var o *op
		if n := len(str.ops); n > 0 {
			o = str.ops[n-1]
			str.ops = str.ops[:n-1]
		} else {
			o = d.newOp(str)
		}
		d.launch(o)
		d.eng.After(d.probeEvery, str.tick)
	}
	return str
}

// deal registers the standard shape: on each node streamsPerNode bulk
// streams over pages [0,bulk), classes and patterns dealt, then one
// probe per node over [0,probe). open is called for each stream in id
// order to open the workload's handle for it.
func (d *driver) deal(nodes int, seed uint64, bulk, probe int, open func(*stream) error) error {
	z := newZipf(bulk)
	for n := 0; n < nodes; n++ {
		for i := 0; i < streamsPerNode; i++ {
			g := n*streamsPerNode + i
			r := newRNG(seed ^ mix64(uint64(g)+1))
			pk := picker{pat: pattern(g % int(numPatterns)), n: bulk, r: r, z: z}
			if err := open(d.addStream(n, classDeal[i], streamDepth, pk, r)); err != nil {
				return err
			}
		}
	}
	for n := 0; n < nodes; n++ {
		r := newRNG(seed ^ mix64(0x9b0be<<20|uint64(n)))
		if err := open(d.addProbe(n, picker{pat: patUniform, n: probe, r: r}, r)); err != nil {
			return err
		}
	}
	return nil
}

// pipelined makes calls 0..n-1 with depth of them in flight, runs the
// engine dry, and returns the first error: how stacks are seeded.
func pipelined(eng *sim.Engine, depth, n int, call func(i int, done func(error))) error {
	var firstErr error
	next := 0
	var more func(error)
	more = func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if next < n {
			next++
			call(next-1, more)
		}
	}
	for i := 0; i < depth; i++ {
		more(nil)
	}
	eng.Run()
	return firstErr
}

// start issues every bulk stream's window and arms the probes,
// staggered across one probe interval.
func (d *driver) start() {
	probes := 0
	for _, str := range d.streams {
		if str.probe {
			probes++
		}
	}
	k := 0
	for _, str := range d.streams {
		if str.probe {
			k++
			d.eng.After(d.probeEvery*sim.Time(k)/sim.Time(probes), str.tick)
			continue
		}
		for i := 0; i < str.depth; i++ {
			o := d.newOp(str)
			str.ops = append(str.ops, o)
			d.launch(o)
		}
	}
}

func (d *driver) launch(o *op) {
	str := o.str
	o.node = str.node
	o.seq = str.nseq
	str.nseq++
	o.start = d.eng.Now()
	d.issue(o)
}

// begin accounts an op as attempted (pages page-ops) and opens its
// span. Workloads call it from issue once the op's shape is known.
func (d *driver) begin(o *op, pages int64, code opCode) {
	d.attempted += pages
	if d.rec != nil {
		o.span = d.rec.begin(o, code)
	}
}

// done finishes an op: accounts it, folds it into the digest, records
// a probe's latency from its due time, and reissues a bulk op.
func (d *driver) done(o *op, pages int64, ok bool) {
	now := d.eng.Now()
	d.completed += pages
	if !ok {
		d.failed += pages
	}
	str := o.str
	if !d.stop {
		d.digest(now, str.id, o.seq)
	}
	if d.rec != nil {
		d.rec.end(o.span, now, ok)
	}
	if str.probe {
		if d.measuring {
			d.lat = append(d.lat, int64(now-o.start))
		}
		str.ops = append(str.ops, o)
		return
	}
	if !d.stop {
		d.launch(o)
	}
}

// digest folds one completion — virtual time, stream, op id — into
// the running SHA-256. Only completions before the window's end count:
// the drain after it is not part of the measured schedule.
func (d *driver) digest(now sim.Time, stream int, seq uint64) {
	d.digBuf = binary.LittleEndian.AppendUint64(d.digBuf, uint64(now))
	d.digBuf = binary.LittleEndian.AppendUint32(d.digBuf, uint32(stream))
	d.digBuf = binary.LittleEndian.AppendUint64(d.digBuf, seq)
	if len(d.digBuf) > cap(d.digBuf)-20 {
		d.dig.Write(d.digBuf)
		d.digBuf = d.digBuf[:0]
	}
}

func (d *driver) digestHex() string {
	d.dig.Write(d.digBuf)
	d.digBuf = d.digBuf[:0]
	return hex.EncodeToString(d.dig.Sum(nil))
}

// runUntil steps the engine until target page ops have completed. It
// reports false if the engine ran dry first: the stack dropped an op.
func (d *driver) runUntil(target int64) bool {
	for d.completed < target {
		if !d.eng.Step() {
			return false
		}
	}
	return true
}

// drain stops issuing and runs the engine dry. Ops still outstanding
// afterwards were dropped by the stack; they count as failed.
func (d *driver) drain() {
	d.stop = true
	d.eng.Run()
	if lost := d.attempted - d.completed; lost > 0 {
		d.failed += lost
	}
}

// --- spans -------------------------------------------------------------

// span is one call into the workload's top layer, in virtual time.
type span struct {
	start, end sim.Time
	stream     int32
	node       int16
	class      uint8
	code       opCode
	ok         bool
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	spans []span
}

// spanSet is one run's spans: all calls into one layer of one workload.
type spanSet struct {
	workload, layer string
	spans           []span
}

func (r *recorder) begin(o *op, code opCode) int32 {
	r.spans = append(r.spans, span{
		start: o.start, end: -1,
		stream: int32(o.str.id), node: int16(o.node), class: uint8(o.str.class), code: code,
	})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32, now sim.Time, ok bool) {
	r.spans[i].end = now
	r.spans[i].ok = ok
}
