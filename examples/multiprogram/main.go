// Multiprogram: the paper's Figure 4 scenario on the real runtime.
//
// Three applications — an image-filter pipeline, a matrix multiply, and
// a log analyzer — start 300 ms apart, each greedy enough to use the
// whole machine. A shared coordinator keeps the total number of runnable
// workers equal to the processor count, expanding each application's
// share as the others finish. Compare the printed share timeline with
// the paper's Figure 5.
package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"procctl"
)

const taskWork = 1 << 17 // hash iterations per task

func busyTask(seed int) procctl.Task {
	return func() {
		h := fnv.New64a()
		var buf [8]byte
		for i := 0; i < taskWork; i++ {
			buf[0] = byte(seed)
			buf[1] = byte(i)
			h.Write(buf[:])
		}
		_ = h.Sum64()
	}
}

func main() {
	ncpu := runtime.GOMAXPROCS(0)
	coord := procctl.NewCoordinator(ncpu)
	fmt.Printf("machine: %d processors\n", ncpu)

	type app struct {
		name  string
		tasks int
		delay time.Duration
	}
	apps := []app{
		{"imagefilter", 600, 0},
		{"matmul", 400, 300 * time.Millisecond},
		{"loganalyzer", 300, 600 * time.Millisecond},
	}

	var mu sync.Mutex
	pools := make(map[string]*procctl.Pool)

	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range apps {
		wg.Add(1)
		go func(i int, a app) {
			defer wg.Done()
			time.Sleep(a.delay)
			p := procctl.NewPool(procctl.PoolConfig{Name: a.name, Workers: ncpu})
			mu.Lock()
			pools[a.name] = p
			mu.Unlock()
			coord.RegisterWeighted(p, 1)
			for t := 0; t < a.tasks; t++ {
				if err := p.Submit(busyTask(i*1000 + t)); err != nil {
					panic(err)
				}
			}
			p.Close()
			p.Wait()
			coord.Unregister(a.name)
			mu.Lock()
			delete(pools, a.name)
			mu.Unlock()
			fmt.Printf("%7.2fs  %s finished\n", time.Since(start).Seconds(), a.name)
		}(i, a)
	}

	// Timeline: total runnable workers across applications (the paper's
	// Figure 5 measurement).
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(200 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				mu.Lock()
				total := 0
				line := ""
				for _, a := range apps {
					if p, ok := pools[a.name]; ok {
						r := p.Runnable()
						total += r
						line += fmt.Sprintf("  %s=%d", a.name, r)
					}
				}
				mu.Unlock()
				if line != "" {
					fmt.Printf("%7.2fs  runnable total=%-3d%s\n", time.Since(start).Seconds(), total, line)
				}
			}
		}
	}()

	wg.Wait()
	close(done)
	fmt.Printf("all applications done in %.2fs; total runnable never exceeded %d by design\n",
		time.Since(start).Seconds(), ncpu)
}
