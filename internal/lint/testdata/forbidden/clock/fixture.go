// The forbidden analyzer's package-function table: host-clock reads
// and the global math/rand stream are flagged; locally-seeded
// generators, time constants, and same-named methods on local types
// are not. Its sibling (concurrency) holds the banned syntax kinds.
package fixture

import (
	"math/rand"
	"time"
)

func bad() time.Duration {
	start := time.Now()                // want `forbidden: time.Now reads the host clock`
	time.Sleep(time.Millisecond)       // want `forbidden: time.Sleep reads the host clock`
	_ = rand.Intn(10)                  // want `forbidden: global rand.Intn draws from process-global state`
	rand.Shuffle(0, func(i, j int) {}) // want `forbidden: global rand.Shuffle draws from process-global state`
	return time.Since(start)           // want `forbidden: time.Since reads the host clock`
}

// seeded builds a locally-seeded generator — always allowed.
func seeded() *rand.Rand {
	return rand.New(rand.NewSource(42))
}

// constants from package time do not read the clock.
const tick = 10 * time.Millisecond

// clock has a method named Now; method calls are never flagged.
type clock struct{ t int64 }

func (c *clock) Now() int64 { return c.t }

func usesLocalNow(c *clock) int64 { return c.Now() }

// suppressed keeps one audited host-clock read.
func suppressed() int64 {
	//simlint:allow forbidden (fixture: demonstrates an audited suppression)
	return time.Now().UnixNano()
}
