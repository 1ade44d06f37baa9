package sim

import "fmt"

// Pool is a LIFO free list of per-request records: the one recycling
// mechanism under every layer that keeps a record per operation in
// flight. New builds a record and binds its continuations to it, once;
// from then on the record moves between its owner and the pool, so a
// pool that has reached its high-water mark never allocates again. Put
// keeps the record as it is handed over: the caller drops what the
// record referenced (callbacks, page buffers) before returning it.
//
// Out is the number of records taken and not yet returned: those New
// has built less those on the free list, so counting costs the hot path
// nothing. A layer that has drained holds none, so Out() == 0 at drain
// is the dynamic twin of simlint's poolleak check, which follows Get
// and Put through every instantiation of this type.
//
//simlint:pool get=Get put=Put
type Pool[T any] struct {
	// New makes one record. It runs only when the free list is empty.
	New func() *T

	free []*T
	made int // records New has built: each is out, or in free
}

// Get takes the most recently returned record, or a new one.
//
//simlint:hotpath
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		return v
	}
	p.made++
	return p.New()
}

// Put returns a record nothing references any more.
//
//simlint:hotpath
func (p *Pool[T]) Put(v *T) { p.free = append(p.free, v) }

// Out returns the number of records taken and not returned.
func (p *Pool[T]) Out() int { return p.made - len(p.free) }

// Drained reports records still out, naming the pool: the check its
// layer runs once the engine has drained.
func (p *Pool[T]) Drained(name string) error {
	if n := p.Out(); n != 0 {
		return fmt.Errorf("%s: %d pooled records out at drain", name, n)
	}
	return nil
}
