package sim

// Lanes is the one worker loop: a bounded set of workers sharing a list
// and joining. Indexes [0, n) are handed out in order from one cursor
// to `lanes` concurrent lanes; a lane runs body on its index and takes
// the next one when body calls next — at once or from a completion, but
// once per index — so at most `lanes` bodies are outstanding and every
// completion issues exactly one new index in the same instant. done
// fires exactly once, when every lane has found the cursor dry: from
// inside the last body's next, or synchronously when n is zero. A body
// that drops its next retires its lane without joining, and done never
// fires; callers use that for an error that abandons the run.
//
// The lane number is stable for a worker's life, so a caller that needs
// affinity (one host thread per lane) indexes its own slice by it. No
// more than n lanes start, and never fewer than one, whatever count is
// asked for: on an empty list it is the lane that finds the cursor dry.
// In-store engines of `window` reads each are engines x window lanes:
// the cursor is shared, so whichever engine a completion belongs to, it
// issues the same next read.
//
// Lanes is a LaneLoop used once; a caller that runs the same loop again
// and again keeps one instead.
func Lanes(n, lanes int, body func(lane, i int, next func()), done func()) {
	NewLaneLoop(max(min(lanes, n), 1), body, done).Run(n, lanes)
}

// LaneLoop is the state of Lanes kept for reuse: its body, its done and
// each lane's next are bound once, so a run allocates nothing.
type LaneLoop struct {
	body            func(lane, i int, next func())
	done            func()
	next            []func() // by lane
	n, cursor, live int
}

// NewLaneLoop returns a loop of at most lanes lanes over body and done.
func NewLaneLoop(lanes int, body func(lane, i int, next func()), done func()) *LaneLoop {
	s := &LaneLoop{body: body, done: done, next: make([]func(), lanes)}
	for l := range s.next {
		s.next[l] = func() { s.step(l) }
	}
	return s
}

// Run is Lanes over [0, n) on at most lanes of the loop's lanes. A run
// may start the next from inside its done: the old run touches nothing
// once done fires.
func (s *LaneLoop) Run(n, lanes int) {
	lanes = max(min(lanes, n, len(s.next)), 1)
	s.n, s.cursor, s.live = n, 0, lanes
	for l := 0; l < lanes; l++ {
		s.next[l]()
	}
}

// step is lane l's next: issue the cursor's index, or find it dry.
func (s *LaneLoop) step(l int) {
	if s.cursor == s.n {
		if s.live--; s.live == 0 {
			s.done()
		}
		return
	}
	i := s.cursor
	s.cursor++
	s.body(l, i, s.next[l])
}
