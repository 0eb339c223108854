//go:build goexperiment.synctest

// synctest.Run refuses the pre-1.23 asynchronous timer channels that
// go.mod's `go 1.22` line selects for this test binary, hence the
// go:debug line below.

//go:debug asynctimerchan=0

package coordinator

import (
	"testing"
	"testing/synctest"
)

// runBubble runs f in a synctest bubble.
func runBubble(_ *testing.T, f func()) { synctest.Run(f) }

// waitBubble waits until every other goroutine in the bubble is durably
// blocked.
func waitBubble() { synctest.Wait() }
