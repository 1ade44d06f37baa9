package ftl

// MaxEraseSkew returns max-min erase count across serviceable blocks,
// the wear-leveling quality metric.
func (f *FTL) MaxEraseSkew() int64 {
	var min, max int64 = -1, 0
	for b, e := range f.erases {
		if f.Log.Units[b].Bad {
			continue
		}
		if min < 0 || e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	if min < 0 {
		return 0
	}
	return max - min
}
