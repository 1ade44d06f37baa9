// Package flashserver implements the sharing layer between the flash
// controller and its many users (paper §3.1.2, Figure 3):
//
//   - Splitter: lets multiple hardware endpoints (local in-store
//     processors, host DMA, remote nodes) share one flash controller by
//     renaming each agent's private tags onto the controller's tag
//     space;
//   - Server: converts the controller's out-of-order, interleaved burst
//     interface into simple in-order request/response interfaces using
//     page completion buffers;
//   - ATU: the Address Translation Unit that maps (file handle, offset)
//     streams from the host onto physical flash addresses.
package flashserver

import (
	"fmt"

	"repro/internal/flashctl"
	"repro/internal/sim"
)

// Splitter multiplexes agents onto one controller with tag renaming.
type Splitter struct {
	ctl      *flashctl.Controller
	freeTags []int
	queue    sim.Queue[pendingCmd] // waiting for a controller tag, FIFO
	bindings []binding             // indexed by controller tag
	h        flashctl.Handlers

	// stats
	renames int64
	waits   int64
}

type binding struct {
	port     *Port
	agentTag int
	active   bool
}

type pendingCmd struct {
	port *Port
	cmd  flashctl.Command
}

// Port is one agent's private view of the controller: its own tag
// space and its own handler set.
type Port struct {
	sp     *Splitter
	h      flashctl.Handlers
	name   string
	tagMap map[int]int // agent tag -> controller tag (for WriteImage)
}

// NewSplitter wires a splitter in front of ctl. The controller must
// have been created with the splitter's dispatch handlers, which
// callers get from Handlers(); see New for the usual one-call setup.
func NewSplitter(ctl *flashctl.Controller) *Splitter {
	sp := &Splitter{ctl: ctl}
	n := ctl.Config().Tags
	sp.bindings = make([]binding, n)
	for i := n - 1; i >= 0; i-- {
		sp.freeTags = append(sp.freeTags, i)
	}
	sp.h = sp.buildHandlers()
	return sp
}

// Handlers returns the controller-side handler set that routes
// completions back through the splitter. Pass this to flashctl.New.
// The set is built once at construction, so callers may fetch it per
// event (the usual forward-declaration wiring does) without allocating
// closures on the completion path.
func (sp *Splitter) Handlers() flashctl.Handlers { return sp.h }

func (sp *Splitter) buildHandlers() flashctl.Handlers {
	return flashctl.Handlers{
		ReadChunk: func(tag, offset int, chunk []byte, last bool) {
			b := sp.bindings[tag]
			if b.active && b.port.h.ReadChunk != nil {
				b.port.h.ReadChunk(b.agentTag, offset, chunk, last)
			}
		},
		ReadDone: func(tag, corrected int, err error) {
			b := sp.release(tag)
			if b.port != nil && b.port.h.ReadDone != nil {
				b.port.h.ReadDone(b.agentTag, corrected, err)
			}
		},
		WriteDataReq: func(tag int) {
			b := sp.bindings[tag]
			if b.active && b.port.h.WriteDataReq != nil {
				b.port.h.WriteDataReq(b.agentTag)
			}
		},
		WriteDone: func(tag int, err error) {
			b := sp.release(tag)
			if b.port != nil {
				delete(b.port.tagMap, b.agentTag)
				if b.port.h.WriteDone != nil {
					b.port.h.WriteDone(b.agentTag, err)
				}
			}
		},
		EraseDone: func(tag int, err error) {
			b := sp.release(tag)
			if b.port != nil && b.port.h.EraseDone != nil {
				b.port.h.EraseDone(b.agentTag, err)
			}
		},
	}
}

// release frees a controller tag, serves the wait queue, and returns
// the binding that owned the tag.
func (sp *Splitter) release(tag int) binding {
	b := sp.bindings[tag]
	sp.bindings[tag] = binding{}
	sp.freeTags = append(sp.freeTags, tag)
	sp.drain()
	return b
}

func (sp *Splitter) drain() {
	for sp.queue.Len() > 0 && len(sp.freeTags) > 0 {
		pc := sp.queue.Pop()
		sp.submit(pc.port, pc.cmd)
	}
}

func (sp *Splitter) submit(p *Port, cmd flashctl.Command) {
	ctlTag := sp.freeTags[len(sp.freeTags)-1]
	sp.freeTags = sp.freeTags[:len(sp.freeTags)-1]
	sp.bindings[ctlTag] = binding{port: p, agentTag: cmd.Tag, active: true}
	if cmd.Op == flashctl.OpWrite {
		p.tagMap[cmd.Tag] = ctlTag
	}
	sp.renames++
	renamed := cmd
	renamed.Tag = ctlTag
	if err := sp.ctl.Issue(renamed); err != nil {
		// The splitter owns tag allocation, so this is a programming
		// error in the model, not a runtime condition.
		panic(fmt.Sprintf("flashserver: controller rejected renamed command: %v", err))
	}
}

// NewPort creates an agent-facing port named for diagnostics.
func (sp *Splitter) NewPort(name string, h flashctl.Handlers) *Port {
	return &Port{sp: sp, h: h, name: name, tagMap: make(map[int]int)}
}

// Issue submits a command using the port's private tag space. Commands
// queue FIFO when all controller tags are in flight.
func (p *Port) Issue(cmd flashctl.Command) error {
	if cmd.Tag < 0 {
		return fmt.Errorf("%w: %d", flashctl.ErrBadTag, cmd.Tag)
	}
	if len(p.sp.freeTags) == 0 {
		p.sp.waits++
		p.sp.queue.Push(pendingCmd{port: p, cmd: cmd})
		return nil
	}
	p.sp.submit(p, cmd)
	return nil
}

// WriteImage forwards the page image of an agent-tagged pending write;
// like flashctl.Controller.WriteImage it gives raw away.
func (p *Port) WriteImage(agentTag int, raw []byte) error {
	ctlTag, ok := p.tagMap[agentTag]
	if !ok {
		return fmt.Errorf("%w: agent tag %d has no pending write", flashctl.ErrWrongState, agentTag)
	}
	return p.sp.ctl.WriteImage(ctlTag, raw)
}
