// Loadaware: idle pools yield their processors to busy ones.
//
// A latency-sensitive "api" pool is mostly idle; a "batch" pool has a
// deep backlog. Under plain fair sharing each holds half the machine;
// with load-aware coordination the idle pool's claim shrinks to one
// warm worker and the batch pool takes the rest — until api traffic
// arrives and the next rebalance gives its share back.
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"procctl"
)

func main() {
	const capacity = 8
	coord := procctl.NewCoordinator(capacity)
	coord.SetLoadAware(true)
	stop := coord.StartAutoRebalance(20 * time.Millisecond)
	defer stop()

	api := procctl.NewPool(procctl.PoolConfig{Name: "api", Workers: capacity})
	batch := procctl.NewPool(procctl.PoolConfig{Name: "batch", Workers: capacity})
	coord.RegisterWeighted(api, 1)
	coord.RegisterWeighted(batch, 1)

	var batchDone atomic.Int64
	for i := 0; i < 400; i++ {
		batch.Submit(func() {
			time.Sleep(2 * time.Millisecond)
			batchDone.Add(1)
		})
	}

	report := func(phase string) {
		time.Sleep(60 * time.Millisecond) // let the rebalance land
		fmt.Printf("%-22s api target=%d  batch target=%d  batch done=%d\n",
			phase, api.Target(), batch.Target(), batchDone.Load())
	}

	report("batch only:")

	// A burst of api traffic arrives.
	var apiDone atomic.Int64
	g := procctl.NewGroup(api)
	for i := 0; i < 200; i++ {
		g.Go(func() error {
			time.Sleep(2 * time.Millisecond)
			apiDone.Add(1)
			return nil
		})
	}
	report("api burst arrives:")

	if err := g.Wait(); err != nil {
		panic(err)
	}
	report("api burst served:")

	batch.Close()
	batch.Wait()
	api.Close()
	api.Wait()
	fmt.Printf("done: api=%d batch=%d tasks\n", apiDone.Load(), batchDone.Load())
}
