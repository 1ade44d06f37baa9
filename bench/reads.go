package main

// local-read and remote-read: sched.Stream.Read of raw flash pages
// seeded with Cluster.SeedLinear. The two differ only in which node a
// read targets — the issuing node (fabric idle) or a uniformly chosen
// other node (fabric busy).

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
)

type readDims struct {
	nodes        int
	pagesPerNode int
	probeEvery   sim.Time
	warm         int64 // page ops before the window
	rate         int64 // window page ops per requested second
}

type readLoad struct {
	d      *driver
	c      *core.Cluster
	st     stamper
	dims   readDims
	remote bool
	addrs  [][]core.PageAddr // [node][index]
	hs     []*sched.Stream   // by stream id
}

func buildReads(dims readDims, remote bool, seed uint64, sz sizing) (*instance, error) {
	c, err := core.NewCluster(core.DefaultParams(dims.nodes))
	if err != nil {
		return nil, err
	}
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		return nil, err
	}
	w := &readLoad{c: c, st: stamper{seed: seed}, dims: dims, remote: remote}
	for n := 0; n < dims.nodes; n++ {
		space := uint32(n)
		err := c.SeedLinear(n, dims.pagesPerNode, func(idx int, page []byte) {
			w.st.fill(page, space, uint64(idx), 0)
		})
		if err != nil {
			return nil, fmt.Errorf("seed node %d: %w", n, err)
		}
		row := make([]core.PageAddr, dims.pagesPerNode)
		for i := range row {
			row[i] = core.LinearPage(c.Params, n, i)
		}
		w.addrs = append(w.addrs, row)
	}

	d := newDriver(c.Eng, "sched", dims.probeEvery)
	w.d = d
	d.issue, d.newOp = w.issue, w.newOp
	err = d.deal(dims.nodes, seed, dims.pagesPerNode, dims.pagesPerNode, func(str *stream) error {
		h, err := s.NewStream(fmt.Sprintf("bench-%d", str.id), str.node, str.class)
		w.hs = append(w.hs, h)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &instance{d: d, st: &stack{c: c, s: s}, warm: dims.warm, window: sz.window(dims.rate)}, nil
}

func (w *readLoad) newOp(str *stream) *op {
	o := &op{str: str}
	o.rcb = func(data []byte, err error) {
		node, idx := o.page/w.dims.pagesPerNode, o.page%w.dims.pagesPerNode
		ok := err == nil && w.st.check(data, uint32(node), uint64(idx), 0, 0)
		w.d.done(o, 1, ok)
	}
	o.again = func() { w.admit(o) }
	return o
}

func (w *readLoad) issue(o *op) {
	str := o.str
	target := str.node
	if w.remote {
		target = str.r.intn(w.dims.nodes - 1)
		if target >= str.node {
			target++
		}
	}
	o.page = target*w.dims.pagesPerNode + str.pick.pick()
	w.d.begin(o, 1, opRead)
	w.admit(o)
}

func (w *readLoad) admit(o *op) {
	a := w.addrs[o.page/w.dims.pagesPerNode][o.page%w.dims.pagesPerNode]
	switch err := w.hs[o.str.id].Read(a, o.rcb); err {
	case nil:
	case sched.ErrBackpressure:
		w.d.eng.After(retryDelay, o.again)
	default:
		w.d.done(o, 1, false)
	}
}
