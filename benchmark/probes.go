package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"time"

	"procctl/internal/flight"
	"procctl/internal/metrics"
	"procctl/internal/runtime/coordinator"
)

// Layer micro-probes: each times one layer's public entry point alone,
// so the traced run can say how much of an end-to-end figure a layer
// can account for at most. They run only in traced runs.

// perOp times fn over n iterations and returns nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// wireProbes time the four codec legs of one poll (encoding/json over
// the public Request/Response shapes, as Client and Server do it), the
// registry work the server does per poll, and the always-on
// instrumentation a poll and a rebalance pay for.
func wireProbes(e *env, f *fleet, rep *report) {
	n := e.sz.probeIters
	m := &f.members[0]
	req := coordinator.Request{Op: coordinator.OpPoll, App: m.name, Applied: m.applied}
	resp := coordinator.Response{OK: true, Target: m.target, Epoch: m.epoch}
	reqLine, err1 := json.Marshal(&req)
	respLine, err2 := json.Marshal(&resp)
	if err1 != nil || err2 != nil {
		rep.fail("codec probe: %v %v", err1, err2)
		return
	}

	enc := json.NewEncoder(io.Discard)
	rep.set("coordinator.req_encode_ns", perOp(n, func(int) { _ = enc.Encode(&req) }))
	rep.set("coordinator.resp_encode_ns", perOp(n, func(int) { _ = enc.Encode(&resp) }))
	bad := 0
	rep.set("coordinator.req_decode_ns", perOp(n, func(int) {
		var r coordinator.Request
		if json.Unmarshal(reqLine, &r) != nil || r.App != m.name {
			bad++
		}
	}))
	rep.set("coordinator.resp_decode_ns", perOp(n, func(int) {
		var r coordinator.Response
		if json.Unmarshal(respLine, &r) != nil || r.Target != m.target {
			bad++
		}
	}))
	if bad > 0 {
		rep.fail("codec probe: %d round trips lost a field", bad)
	} else {
		rep.ok(1)
	}

	// What dispatch does for a poll besides the codec: count the poll
	// against the member's shard and pass the ack to the tracker.
	names := make([]string, len(f.members))
	for i := range f.members {
		names[i] = f.members[i].name
	}
	at := time.Now().UnixMicro()
	rep.set("coordinator.notepoll_ack_ns", perOp(n, func(i int) {
		k := i % len(names)
		f.coord.NotePoll(names[k])
		f.coord.AckApplied(names[k], f.members[k].applied, at)
	}))

	rec := flight.New(flight.DefaultSize)
	ev := flight.Event{At: at, Kind: flight.KindTarget, App: m.name, A: 3, B: 2, Epoch: 9}
	rep.set("flight.append_ns", perOp(n, func(int) { rec.Append(ev) }))

	h := metrics.NewRegistry().Histogram("probe_latency_micros", "probe", metrics.LatencyBuckets)
	rep.set("metrics.observe_ns", perOp(n, func(i int) { h.Observe(int64(i & 4095)) }))
}

// echoer bounces 64-byte messages over unix sockets with no protocol on
// top: one goroutine pair per fleet connection, all pairs at once, so
// it stresses the host the way the drivers' polls do (kernel wake-ups
// between two goroutines) and nothing else. It is the floor under a
// poll's round trip (harness.unix_echo_rtt_us) and fleet_poll's
// yardstick for the host's mood (see runFleetPoll).
type echoer struct {
	lns    []net.Listener
	conns  []net.Conn
	served sync.WaitGroup
}

func newEchoer(dir string, pairs int) (*echoer, error) {
	x := &echoer{}
	for i := 0; i < pairs; i++ {
		path := filepath.Join(dir, fmt.Sprintf("echo%d.sock", i))
		ln, err := net.Listen("unix", path)
		if err != nil {
			x.close()
			return nil, fmt.Errorf("echo probe: %w", err)
		}
		x.lns = append(x.lns, ln)
		x.served.Add(1)
		go func() {
			defer x.served.Done()
			conn, err := ln.Accept()
			if err != nil {
				return // closed before the dial
			}
			defer conn.Close()
			_, _ = io.Copy(conn, conn) // ends when the client closes
		}()
		conn, err := net.Dial("unix", path)
		if err != nil {
			x.close()
			return nil, fmt.Errorf("echo probe: %w", err)
		}
		x.conns = append(x.conns, conn)
	}
	return x, nil
}

// round does n round trips on every pair, all pairs in parallel.
func (x *echoer) round(n int) (time.Duration, error) {
	errs := make([]error, len(x.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for i, conn := range x.conns {
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			msg := make([]byte, 64)
			for k := 0; k < n; k++ {
				if _, err := conn.Write(msg); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(conn, msg); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, conn)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

func (x *echoer) close() {
	for _, c := range x.conns {
		_ = c.Close()
	}
	for _, ln := range x.lns {
		_ = ln.Close()
	}
	x.served.Wait()
}
