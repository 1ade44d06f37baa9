package sched

// Urgency returns a node's Background urgency: the max of its sources.
func (s *Scheduler) Urgency(node int) float64 { return s.nodes[node].gcUrgency }

// QueueLen returns the current admission-queue occupancy of a node.
func (s *Scheduler) QueueLen(node int) int { return s.nodes[node].qlen }

// Inflight returns the number of host requests a node currently has in
// its device window (always within MaxInflight).
func (s *Scheduler) Inflight(node int) int { return s.nodes[node].inflight }

// AccelInflight returns the number of Accel-class reads a node
// currently has granted (always within the accel token budget).
func (s *Scheduler) AccelInflight(node int) int { return s.nodes[node].accelInflight }
