package isp

// Units returns the unit count.
func (s *Scheduler) Units() int { return s.units }
