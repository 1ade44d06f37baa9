// Every concurrency construct inside the deterministic core is a
// finding of the forbidden analyzer.

package fixture

import "sync" // want `forbidden: import of "sync" in the deterministic core`

var mu sync.Mutex

func goStmt() {
	go func() {}() // want `forbidden: go statement in the deterministic core`
}

func channels() {
	var ch chan int // want `forbidden: channel type in the deterministic core`
	ch <- 1         // want `forbidden: channel send in the deterministic core`
	<-ch            // want `forbidden: channel receive in the deterministic core`
	close(ch)       // want `forbidden: close of a channel in the deterministic core`
	for range ch {  // want `forbidden: range over a channel in the deterministic core`
	}
	select {} // want `forbidden: select statement in the deterministic core`
}

// closing a non-channel via a local function named close is fine.
func notBuiltinClose() {
	close := func() {}
	close()
}
