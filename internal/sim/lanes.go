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
func Lanes(n, lanes int, body func(lane, i int, next func()), done func()) {
	lanes = max(min(lanes, n), 1)
	cursor, live := 0, lanes
	for l := 0; l < lanes; l++ {
		var next func()
		next = func() {
			if cursor == n {
				if live--; live == 0 {
					done()
				}
				return
			}
			i := cursor
			cursor++
			body(l, i, next)
		}
		next()
	}
}
