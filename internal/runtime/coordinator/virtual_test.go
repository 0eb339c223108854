// The timing tests run the unchanged runtime, with its production
// defaults, on virtual time: each runs its body in a testing/synctest
// bubble (runBubble), whose clock moves only when every goroutine in it
// is durably blocked, and talks to the server over net.Pipe, which
// blocks on channels the bubble can see (a goroutine parked in netpoll is
// not durably blocked, so a unix socket would stop the clock). Servers
// and clients are closed inside the bubble, by defer: t.Cleanup runs
// outside it, where touching its channels panics. A t.Fatal in a bubble
// ends the bubble's root goroutine, as in the standard library's own
// synctest tests: the deferred closes run, the bubble drains, and
// synctest.Run returns.
//
// Go 1.24 has synctest behind GOEXPERIMENT=synctest. Built with the
// flag, runBubble is synctest.Run (synctest_on_test.go); built without
// it, each such test builds the package's tests with the flag and runs
// itself there (synctest_off_test.go), so plain `go test` runs them on
// virtual time too.

package coordinator

import (
	"net"
	"sync"
	"time"
)

// pipeListener is a net.Listener whose connections are net.Pipe pairs:
// dial hands Accept one end and returns the other.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial connects to the listener, which must not be closed yet.
func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

// startPipeServer runs a server on a pipeListener. Call it inside a
// bubble, and close the server there.
func startPipeServer(capacity int, lease time.Duration) *Server {
	srv := NewServerWith(New(capacity), newPipeListener(), lease)
	go srv.Serve()
	return srv
}

// pipeClient dials srv, a server on a pipeListener.
func pipeClient(srv *Server) *Client { return newClient(srv.ln.(*pipeListener).dial()) }

// openConns counts the connections srv still serves.
func openConns(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.conns)
}

func leaseExpiries(srv *Server) int64 {
	v, _ := srv.coord.Metrics().Value("coordinator_lease_expiries_total")
	return v
}
