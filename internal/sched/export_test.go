package sched

// PoolOut returns the pooled requests taken and not returned: zero once
// every admitted request has completed.
func (s *Scheduler) PoolOut() int { return s.reqs.Out() }

// PoolOut returns the retrier's ops taken and not returned: zero once
// every read and erase has been admitted or failed.
func (rt *Retrier) PoolOut() int { return rt.ops.Out() }
