//go:build go1.23

package kernel

import "iter"

// newCoroutine makes seq a coroutine of its caller: next switches to it
// until it yields (or returns: ok false), stop makes a parked yield
// return false and waits for seq to return. The switch is direct — same
// thread, no run queue — and orders memory like a channel hand-off. Only
// this file names iter, under a build tag: go.mod's go 1.22 predates it.
func newCoroutine(seq func(yield func(Request) bool)) (next func() (Request, bool), stop func()) {
	return iter.Pull(iter.Seq[Request](seq))
}
