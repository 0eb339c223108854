// Quickstart: one adaptive pool under a coordinator.
//
// A pool of 8 workers computes digits of pi by summing series terms.
// Mid-run, the coordinator learns that uncontrollable load is occupying
// half the machine and shrinks the pool's target; the pool suspends
// workers at task boundaries, then resumes them when the load clears —
// the paper's process control in ~60 lines.
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"procctl"
)

func main() {
	coord := procctl.NewCoordinator(8)
	p := procctl.NewPool(procctl.PoolConfig{Name: "pi", Workers: 8})
	coord.RegisterWeighted(p, 1)

	// Each task sums a slice of the Leibniz series.
	const tasks, terms = 400, 1_000_000
	var milliPi atomic.Int64
	for t := 0; t < tasks; t++ {
		start := t * terms
		if err := p.Submit(func() {
			sum := 0.0
			for k := start; k < start+terms; k++ {
				term := 1.0 / float64(2*k+1)
				if k%2 == 1 {
					term = -term
				}
				sum += term
			}
			milliPi.Add(int64(4 * sum * 1e6))
		}); err != nil {
			panic(err)
		}
	}

	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		time.Sleep(50 * time.Millisecond)
		fmt.Printf("external load arrives: 4 processors busy elsewhere\n")
		coord.SetExternalLoad(4)
		report(p)
		time.Sleep(100 * time.Millisecond)
		fmt.Printf("external load clears\n")
		coord.SetExternalLoad(0)
		report(p)
	}()

	p.Close()
	p.Wait()
	<-loadDone

	st := p.Stats()
	fmt.Printf("pi ≈ %.5f after %d tasks (%d suspensions, %d resumes)\n",
		float64(milliPi.Load())/1e6, st.Completed, st.Suspensions, st.Resumes)
}

func report(p *procctl.Pool) {
	// Give workers a moment to reach their safe points.
	time.Sleep(20 * time.Millisecond)
	fmt.Printf("  target %d, runnable %d\n", p.Target(), p.Runnable())
}
