// Daemon: two independent applications coordinated through the procctld
// socket protocol, all in one program for easy running.
//
// The program starts an in-process coordinator server on a Unix socket
// (exactly what cmd/procctld runs), then launches two "applications"
// that connect as clients, register, and let Client.DriveWith poll their
// targets — the paper's application/server split over real IPC.
package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"procctl"
)

func main() {
	sock := filepath.Join(os.TempDir(), fmt.Sprintf("procctld-example-%d.sock", os.Getpid()))
	defer os.Remove(sock)

	const capacity = 8
	coord := procctl.NewCoordinator(capacity)
	ln, err := net.Listen("unix", sock)
	if err != nil {
		panic(err)
	}
	srv := procctl.NewServer(coord, ln)
	go srv.Serve()
	defer srv.Close()
	fmt.Printf("daemon: managing %d processors on %s\n", capacity, sock)

	var wg sync.WaitGroup
	app := func(name string, workers, tasks int, taskDur time.Duration) {
		defer wg.Done()
		client, err := procctl.Dial("unix", sock)
		if err != nil {
			panic(err)
		}
		defer client.Close()

		p := procctl.NewPool(procctl.PoolConfig{Name: name, Workers: workers})
		// Poll fast so the demo converges in seconds; the paper (and
		// the default) uses 6 s.
		d, err := client.DriveWith(name, workers, p, procctl.DriveOptions{Interval: 100 * time.Millisecond})
		if err != nil {
			panic(err)
		}
		defer d.Stop()

		for i := 0; i < tasks; i++ {
			if err := p.Submit(func() { time.Sleep(taskDur) }); err != nil {
				panic(err)
			}
		}
		p.Close()

		for i := 0; ; i++ {
			st := p.Stats()
			if int(st.Completed) == tasks {
				break
			}
			if i%5 == 0 {
				fmt.Printf("  %-8s target=%d runnable=%d done=%d/%d\n",
					name, p.Target(), p.Runnable(), st.Completed, tasks)
			}
			time.Sleep(100 * time.Millisecond)
		}
		p.Wait()
		fmt.Printf("  %-8s finished (%d suspensions)\n", name, p.Stats().Suspensions)
	}

	wg.Add(2)
	go app("alpha", 8, 800, 10*time.Millisecond)
	time.Sleep(200 * time.Millisecond)
	go app("beta", 8, 400, 10*time.Millisecond)
	wg.Wait()

	fmt.Println("both applications done; while they overlapped, each was held to ~4 of the 8 processors")
}
