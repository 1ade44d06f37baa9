package sim

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64 followed by xorshift-style mixing). Each simulated
// component owns its own RNG so that adding a component never perturbs
// another component's random stream.
type RNG struct {
	state uint64
}

// NewRNG seeds a generator. Two generators with the same seed produce
// identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Warm up so that small seeds do not produce correlated leading values.
	r.Uint64()
	r.Uint64()
	return r
}

// State returns the generator's internal state. Together with
// NewRNGFromState it lets a random stream be serialized mid-walk and
// resumed elsewhere — e.g. a graph walker migrating between in-store
// processors carries its RNG state in the walker message so the
// distributed walk replays the exact reference vertex sequence.
func (r *RNG) State() uint64 { return r.state }

// NewRNGFromState resumes a generator from a saved State. Unlike
// NewRNG it performs no warm-up: the state is already warm.
func NewRNGFromState(state uint64) *RNG { return &RNG{state: state} }

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). Panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
//
//simlint:allow unused (the fabric schedule test draws its random send order from it)
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Bytes fills b with pseudo-random bytes.
func (r *RNG) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		b[i] = byte(v)
		b[i+1] = byte(v >> 8)
		b[i+2] = byte(v >> 16)
		b[i+3] = byte(v >> 24)
		b[i+4] = byte(v >> 32)
		b[i+5] = byte(v >> 40)
		b[i+6] = byte(v >> 48)
		b[i+7] = byte(v >> 56)
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
