package sim

import (
	"testing"
	"testing/quick"
)

func TestPipeSingleTransfer(t *testing.T) {
	e := NewEngine()
	// 1 GB/s, 1us latency: 1000 bytes takes 1us wire + 1us latency.
	p := NewPipe(e, "test", 1_000_000_000, Microsecond)
	var done Time = -1
	p.Transfer(1000, func() { done = e.Now() })
	e.Run()
	if done != 2*Microsecond {
		t.Fatalf("delivery at %v, want 2us", done)
	}
}

func TestPipeSerialization(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "test", 1_000_000_000, 0)
	var times []Time
	// Three back-to-back 1000-byte transfers serialize at 1us each.
	for i := 0; i < 3; i++ {
		p.Transfer(1000, func() { times = append(times, e.Now()) })
	}
	e.Run()
	want := []Time{1 * Microsecond, 2 * Microsecond, 3 * Microsecond}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("deliveries %v, want %v", times, want)
		}
	}
}

func TestPipeLatencyPipelines(t *testing.T) {
	// Latency is propagation, not occupancy: two transfers overlap their
	// latency windows.
	e := NewEngine()
	p := NewPipe(e, "test", 1_000_000_000, 10*Microsecond)
	var times []Time
	p.Transfer(1000, func() { times = append(times, e.Now()) })
	p.Transfer(1000, func() { times = append(times, e.Now()) })
	e.Run()
	if times[0] != 11*Microsecond || times[1] != 12*Microsecond {
		t.Fatalf("deliveries %v, want [11us 12us]", times)
	}
}

func TestPipeZeroSize(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "test", 1_000_000_000, Microsecond)
	var done bool
	p.Transfer(0, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("zero-size transfer never delivered")
	}
}

func TestPipeIdleGap(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "test", 1_000_000_000, 0)
	var second Time
	p.Transfer(1000, nil)
	e.After(10*Microsecond, func() {
		p.Transfer(1000, func() { second = e.Now() })
	})
	e.Run()
	if second != 11*Microsecond {
		t.Fatalf("transfer after idle gap delivered at %v, want 11us", second)
	}
}

func TestPipeStats(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "test", 1_000_000_000, 0)
	p.Transfer(500, func() {})
	p.Transfer(1500, func() {})
	e.Run()
	if p.Transferred() != 2000 {
		t.Fatalf("Transferred = %d, want 2000", p.Transferred())
	}
	if p.Transfers() != 2 {
		t.Fatalf("Transfers = %d, want 2", p.Transfers())
	}
	if u := p.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("Utilization = %f, want ~1.0 (pipe was saturated)", u)
	}
}

func TestPipeAchievedBandwidth(t *testing.T) {
	// Saturating a 150 MB/s bus with 8KB pages must achieve ~150 MB/s.
	e := NewEngine()
	p := NewPipe(e, "bus", 150_000_000, 0)
	const pages = 1000
	for i := 0; i < pages; i++ {
		p.Transfer(8192, func() {})
	}
	e.Run()
	bw := float64(p.Transferred()) / e.Now().Seconds()
	if bw < 149e6 || bw > 151e6 {
		t.Fatalf("achieved bandwidth %.0f B/s, want ~150e6", bw)
	}
}

// Property: deliveries never regress in time and total delivered bytes
// equal requested bytes.
func TestPipeDeliveryOrderProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		e := NewEngine()
		p := NewPipe(e, "q", 1_000_000, 3*Microsecond)
		var last Time = -1
		ok := true
		var want, got int64
		for _, s := range sizes {
			n := int(s)
			want += int64(n)
			p.Transfer(n, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				got += int64(n)
			})
		}
		e.Run()
		return ok && want == got
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenPoolFIFO(t *testing.T) {
	tp := NewTokenPool("link", 2)
	var order []int
	for i := 1; i <= 4; i++ {
		tp.Acquire(func() { order = append(order, i) })
	}
	if len(order) != 2 {
		t.Fatalf("grants = %v, want the first two immediate", order)
	}
	tp.Release()
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("grant 3 should fire on the first release: %v", order)
	}
	// A token released while nobody waits goes back to the pool, and a
	// new acquirer queues behind the waiter it would otherwise overtake.
	tp.Acquire(func() { order = append(order, 5) })
	tp.Release()
	tp.Release()
	if len(order) != 5 || order[3] != 4 || order[4] != 5 {
		t.Fatalf("grants 4 and 5 out of order: %v", order)
	}
	if tp.Available() != 0 {
		t.Fatalf("available = %d, want 0", tp.Available())
	}
	tp.Release()
	if tp.Available() != 1 {
		t.Fatalf("available = %d, want 1", tp.Available())
	}
}

func TestTokenPoolOverRelease(t *testing.T) {
	tp := NewTokenPool("x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing above capacity did not panic")
		}
	}()
	tp.Release()
}

// Property: tokens are conserved under any acquire/release interleaving:
// every acquirer is granted once a token for it comes back, and the pool
// holds what is neither granted nor returned.
func TestTokenPoolConservationProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		tp := NewTokenPool("p", 8)
		acquired, granted, released := 0, 0, 0
		for _, acquire := range ops {
			if acquire {
				tp.Acquire(func() { granted++ })
				acquired++
			} else if released < granted {
				tp.Release()
				released++
			}
		}
		waiting := acquired - granted
		return granted == min(acquired, released+tp.cap) &&
			tp.Available() == tp.cap-(granted-released) &&
			(waiting == 0 || tp.Available() == 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(7).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds look correlated: %d/100 equal", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(2)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGBytes(t *testing.T) {
	r := NewRNG(3)
	b := make([]byte, 33)
	r.Bytes(b)
	zero := 0
	for _, v := range b {
		if v == 0 {
			zero++
		}
	}
	if zero > 8 {
		t.Fatalf("suspiciously many zero bytes: %d/33", zero)
	}
	// Determinism.
	b2 := make([]byte, 33)
	NewRNG(3).Bytes(b2)
	for i := range b {
		if b[i] != b2[i] {
			t.Fatal("RNG.Bytes not deterministic")
		}
	}
}

// Property: TransferBursts leaves a pipe in exactly the state the
// burst-by-burst Transfer calls leave it in — same busy horizon, same
// delivery time, same byte and transfer counts — for any bandwidth,
// burst size and total, including ones where each burst's truncated
// serialization makes the sum differ from the whole.
func TestPipeTransferBurstsMatchesTransfers(t *testing.T) {
	prop := func(bw uint32, burstRaw, totalRaw uint16, busy uint16) bool {
		bytesPerSec := int64(bw)%4_000_000_000 + 1_000
		burst := int(burstRaw)%4096 + 1
		total := int(totalRaw) % 20000
		e1, e2 := NewEngine(), NewEngine()
		a := NewPipe(e1, "bursts", bytesPerSec, 700*Nanosecond)
		b := NewPipe(e2, "train", bytesPerSec, 700*Nanosecond)
		// Start from a pipe that is already busy.
		a.Transfer(int(busy), nil)
		b.Transfer(int(busy), nil)

		var want Time = max(a.busyUntil, e1.Now()) + a.latency
		n := 0
		for left := total; left > 0; left -= burst {
			want = a.Transfer(min(burst, left), nil)
			n++
		}
		fired := false
		got := b.TransferBursts(total, burst, func() { fired = true })
		e2.Run()
		return got == want && fired && e2.Now() == want &&
			a.busyUntil == b.busyUntil && a.busyTotal == b.busyTotal &&
			a.Transferred() == b.Transferred() && a.Transfers() == b.Transfers()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
