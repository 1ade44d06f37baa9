package sim

import "errors"

var (
	errEmptyQueue = errors.New("sim: Pop on an empty Queue")
	errQueueIndex = errors.New("sim: RemoveAt outside [0, Len) of a Queue")
)

// Queue is a FIFO over a ring buffer. Popping advances a head index
// instead of reslicing, so the backing array is reused for the life of
// the queue and a queue that has reached its high-water mark never
// allocates again — `q = q[1:]` abandons the array's head and re-grows
// it forever. The zero value is an empty queue ready to use.
type Queue[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the tail, doubling the ring only when it is full.
//
//simlint:hotpath
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// grow doubles the ring, unwrapping the live elements into the new
// array. It is kept out of line so that Push inlines into hot callers
// as index arithmetic alone.
//
//go:noinline
func (q *Queue[T]) grow() {
	//simlint:allow hotcall (ring doubling on overflow only; amortized O(1) per element, none once the high-water mark is reached)
	grown := make([]T, max(4, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = grown, 0
}

// Front returns the oldest element without removing it. The queue must
// not be empty.
//
//simlint:hotpath
func (q *Queue[T]) Front() T { return q.buf[q.head] }

// Pop removes and returns the oldest element, zeroing its slot so the
// ring holds no reference to it. The queue must not be empty.
//
//simlint:hotpath
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic(errEmptyQueue)
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// At returns the i-th oldest element, 0 <= i < Len, without removing it.
//
//simlint:hotpath
func (q *Queue[T]) At(i int) T { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// RemoveAt removes the i-th oldest element, 0 <= i < Len, closing the
// gap so the rest keep their order. It costs a move per younger
// element: for the rare removal from the middle of a queue that
// otherwise only pops its head. An index outside [0, Len) panics.
func (q *Queue[T]) RemoveAt(i int) {
	if uint(i) >= uint(q.n) {
		panic(errQueueIndex)
	}
	mask := len(q.buf) - 1
	for ; i < q.n-1; i++ {
		q.buf[(q.head+i)&mask] = q.buf[(q.head+i+1)&mask]
	}
	var zero T
	q.buf[(q.head+i)&mask] = zero
	q.n--
}
