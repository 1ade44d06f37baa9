package sched

// PoolOut returns the pooled requests taken and not returned: zero once
// every admitted request has completed.
func (s *Scheduler) PoolOut() int { return s.reqs.Out() }

// PoolOut returns the retrier's ops taken and not returned: zero once
// every read and erase has been admitted or failed.
func (rt *Retrier) PoolOut() int { return rt.ops.Out() }

// Urgency returns a node's Background urgency: the max of its sources.
func (s *Scheduler) Urgency(node int) float64 { return s.nodes[node].gcUrgency }

// QueueLen returns the current admission-queue occupancy of a node.
func (s *Scheduler) QueueLen(node int) int { return s.nodes[node].qlen }

// AccelInflight returns the number of Accel-class reads a node
// currently has in its device window (always within the accel token
// budget).
func (s *Scheduler) AccelInflight(node int) int { return s.nodes[node].accelInflight }
