package coordinator

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"procctl/internal/flight"
	"procctl/internal/metrics"
)

// DefaultPollInterval matches the paper's 6-second application poll.
const DefaultPollInterval = 6 * time.Second

// Client is an application's connection to a coordinator daemon.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	rd      lineReader // replies; unbounded, the daemon is trusted
	out     []byte     // the request line, reused
	network string     // for redial; empty when built from newClient
	addr    string
	// deadline is the connection's I/O deadline, which roundTrip moves to
	// DefaultIOTimeout on once less than half of that is left.
	deadline time.Time
}

// Dial connects to a coordinator daemon, e.g. Dial("unix",
// "/run/procctld.sock") or Dial("tcp", "localhost:7717"). A client's
// DriveWith loop re-dials the same address after the daemon restarts.
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("coordinator: dial %s %s: %w", network, addr, err)
	}
	c := newClient(conn)
	c.network, c.addr = network, addr
	return c, nil
}

// newClient wraps an established connection.
func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, rd: lineReader{r: conn}}
}

// Close drops the connection; the daemon unregisters this client's
// applications.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// redial replaces the connection with a fresh dial to the original
// address — after a daemon restart, or after the daemon swept this
// connection's lease. Registrations do not carry over: the caller
// re-registers every application after a successful redial.
func (c *Client) redial() error {
	// Dial with no lock held: a slow or timing-out dial must not block
	// concurrent roundTrip/Close callers on c.mu. The address fields are
	// set once in Dial before the client is shared, so the copy under
	// the lock is cheap paranoia, and the swap afterwards is a pure
	// in-memory exchange.
	c.mu.Lock()
	network, addr := c.network, c.addr
	c.mu.Unlock()
	if network == "" {
		return errors.New("coordinator: client was not created by Dial; cannot re-dial")
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		return fmt.Errorf("coordinator: re-dial %s %s: %w", network, addr, err)
	}
	c.mu.Lock()
	old := c.conn
	c.conn = conn
	c.rd = lineReader{r: conn}
	c.deadline = time.Time{}
	c.mu.Unlock()
	old.Close()
	return nil
}

// roundTrip sends one request and reads one response. The protocol is
// strictly request/response per connection, and c.mu IS the wire-
// protocol serializer: holding it across the write/read pair is what
// guarantees responses pair with their requests. Concurrent callers
// queueing on the mutex is therefore the intended behaviour, not a
// convoy — hence the blockinglocked pragmas below. A daemon that stops
// answering with its socket still open must not hold the caller, and
// every caller queued behind it, forever: a round trip has at most
// DefaultIOTimeout, the bound the server puts on its reply writes, and at
// least half of it (re-arming the deadline per request would cost a
// runtime timer reset each), and a connection a round trip failed on is
// closed, so that a late reply can never pair with the next request.
// Neither req nor the returned Response reaches the heap: a steady-state
// poll allocates nothing on this side either.
func (c *Client) roundTrip(req *Request) (resp Response, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.out, err = appendRequest(c.out[:0], req); err != nil {
		return resp, fmt.Errorf("coordinator: send: %w", err)
	}
	if now := time.Now(); c.deadline.Sub(now) < DefaultIOTimeout/2 {
		c.deadline = now.Add(DefaultIOTimeout)
		_ = c.conn.SetDeadline(c.deadline) // fails on a closed connection only, where the write fails too
	}
	//procctl:allow-blockinglocked the mutex is the request/response wire serializer; I/O under it is the protocol
	if _, err = c.conn.Write(c.out); err != nil {
		c.conn.Close()
		return resp, fmt.Errorf("coordinator: send: %w", err)
	}
	//procctl:allow-blockinglocked the mutex is the request/response wire serializer; I/O under it is the protocol
	line, err := c.rd.readLine()
	if err != nil {
		c.conn.Close()
	} else {
		err = decodeResponse(line, &resp)
	}
	if err != nil {
		return resp, fmt.Errorf("coordinator: receive: %w", err)
	}
	if !resp.OK {
		return resp, errors.New("coordinator: " + resp.Error)
	}
	return resp, nil
}

// RegisterWeighted announces an application with the given process
// count and fair-share weight, and returns its initial target. Weights
// below 1 (0 for the unit share) are treated as 1 by the coordinator.
func (c *Client) RegisterWeighted(app string, procs, weight int) (int, error) {
	target, _, err := c.registerEpoch(app, procs, weight, nil, 0)
	return target, err
}

// registerEpoch is RegisterWeighted carrying the driver's spin% and
// applied-epoch ack, and returning the epoch of the rebalance that
// computed the target (0 from daemons predating epochs).
func (c *Client) registerEpoch(app string, procs, weight int, spin *float64, applied uint64) (int, uint64, error) {
	resp, err := c.roundTrip(&Request{Op: OpRegister, App: app, Procs: procs, Weight: weight, SpinPct: spin, Applied: applied})
	if err != nil {
		return 0, 0, err
	}
	return resp.Target, resp.Epoch, nil
}

// PollEpoch polls for the current target and its epoch while
// acknowledging the highest epoch the caller has already applied
// (0 = nothing to ack). Tools and tests use it directly; DriveWith
// handles the ack bookkeeping itself.
func (c *Client) PollEpoch(app string, applied uint64) (int, uint64, error) {
	return c.pollEpoch(app, nil, applied)
}

// pollEpoch is PollEpoch carrying the driver's spin%.
func (c *Client) pollEpoch(app string, spin *float64, applied uint64) (int, uint64, error) {
	resp, err := c.roundTrip(&Request{Op: OpPoll, App: app, SpinPct: spin, Applied: applied})
	if err != nil {
		return 0, 0, err
	}
	return resp.Target, resp.Epoch, nil
}

// Converge fetches up to limit of the daemon's most recently closed
// epochs, newest first (0 = everything retained). Daemons predating the
// op answer with an error. The open-epoch count and the latency
// quantiles are series of the metrics op.
func (c *Client) Converge(limit int) ([]ConvergeInfo, error) {
	resp, err := c.roundTrip(&Request{Op: OpConverge, Limit: limit})
	if err != nil {
		return nil, err
	}
	return resp.Converge, nil
}

// Unregister withdraws the application.
func (c *Client) Unregister(app string) error {
	_, err := c.roundTrip(&Request{Op: OpUnregister, App: app})
	return err
}

// SetExternalLoad reports uncontrollable load to the daemon.
func (c *Client) SetExternalLoad(n int) error {
	_, err := c.roundTrip(&Request{Op: OpSetLoad, Load: n})
	return err
}

// Status fetches the daemon's state snapshot.
func (c *Client) Status() (*Status, error) {
	resp, err := c.roundTrip(&Request{Op: OpStatus})
	if err != nil {
		return nil, err
	}
	if resp.Status == nil {
		return nil, errors.New("coordinator: empty status")
	}
	return resp.Status, nil
}

// Metrics fetches the daemon's metrics snapshot (every registry series,
// stamped with the daemon's wall clock in Unix microseconds).
func (c *Client) Metrics() (*metrics.Snapshot, error) {
	resp, err := c.roundTrip(&Request{Op: OpMetrics})
	if err != nil {
		return nil, err
	}
	if resp.Metrics == nil {
		return nil, errors.New("coordinator: empty metrics")
	}
	return resp.Metrics, nil
}

// Events fetches up to limit of the daemon's most recent flight-recorder
// events, oldest first (limit <= 0 fetches everything the ring
// retains), with the post-mortem filters: only events with sequence
// numbers >= since, and (when epoch is non-zero) only events stamped
// with that epoch. Daemons predating the op answer with an error; those
// predating the filters ignore them and answer with the plain limited
// dump.
func (c *Client) Events(limit int, since, epoch uint64) ([]flight.Event, error) {
	resp, err := c.roundTrip(&Request{Op: OpEvents, Limit: limit, Since: since, Epoch: epoch})
	if err != nil {
		return nil, err
	}
	return resp.Events, nil
}

// Targeter is the application side of the push; *pool.Pool satisfies it.
type Targeter interface {
	// SetTargetEpoch sets how many workers the application may run, with
	// the epoch of the rebalance that computed the target (0: none did, as
	// in the driver's degraded-mode decay). It refuses a non-zero epoch
	// below the newest pushed, and reports whether the target was applied
	// before returning: the coordinator's fan-out then counts the epoch
	// acked at once, else the ack comes through Coordinator.AckApplied.
	SetTargetEpoch(n int, epoch uint64) (applied bool)
	// ResetEpoch forgets the newest epoch pushed. The driver calls it when
	// a daemon that restarted without its journal counts from 1 again.
	ResetEpoch()
}

// spinOf samples the target's spin% when it can report one (*pool.Pool
// can); nil otherwise, so the wire field stays absent rather than lying
// with 0%. The driver piggybacks this on every register and poll — the
// daemon's status view then shows how much of each application's worker
// time is waste, the runtime analogue of the simulator's wasted-cycle
// attribution.
func spinOf(t Targeter) *float64 {
	if s, ok := t.(interface{ SpinPercent() float64 }); ok {
		v := s.SpinPercent()
		return &v
	}
	return nil
}

// DriveOptions tunes DriveWith's poll loop and its failure handling.
// The zero value selects the defaults.
type DriveOptions struct {
	// Interval is the poll period (default DefaultPollInterval, the
	// paper's 6 s), kept exactly as given, also below 25 ms: the driver
	// sleeps until its next poll, and acks a new epoch at once.
	Interval time.Duration
	// Weight is the fair-share weight the driver registers (and
	// re-registers) with; non-positive means the default unit share.
	Weight int
	// Flight, when non-nil, receives redial/reconnect events and, for
	// every target the driver applies, an epoch-stamped apply event —
	// the client-side entries of the control plane's flight log, which
	// procctl-trace's daemon export merges with the daemon's ring.
	Flight *flight.Recorder
}

// The driver's failure handling. backoffMin and backoffMax bound the
// jittered exponential backoff between reconnection attempts. For
// graceIntervals poll intervals after losing the daemon the last
// target is held unchanged. Past that grace, the target decays toward
// the full process count: with no arbiter alive there is no longer
// anyone to be fair to, so the application drifts back to uncontrolled
// behaviour rather than idling forever on a stale small target.
const (
	backoffMin, backoffMax = 100 * time.Millisecond, 5 * time.Second
	graceIntervals         = 2
)

// DriveStats is a point-in-time snapshot of a Driver's health.
type DriveStats struct {
	Polls      int64 // successful polls
	PollErrors int64 // polls that failed (connection lost)
	Redials    int64 // reconnection attempts
	Reconnects int64 // successful re-dial + re-register cycles
	// Degraded reports the loop is running without a daemon: the last
	// target is held through the grace period, then decayed toward the
	// full process count.
	Degraded bool
	// DegradedFor is how long the daemon has been unreachable (0 when
	// connected).
	DegradedFor time.Duration
	// Target is the most recently applied worker target.
	Target int
}

// Driver is a running DriveWith loop.
type Driver struct {
	c     *Client
	app   string
	procs int
	t     Targeter
	opts  DriveOptions

	lostAt atomic.Pointer[time.Time] // when the daemon was lost; nil when connected

	// applied is the highest rebalance epoch whose target this driver
	// has pushed into the application — the value acked back to the
	// daemon on every poll and register.
	applied atomic.Uint64

	// Counts of the loop's outcomes, and the most recently applied
	// target; Stats reads them.
	polls, pollErrors, redials, reconnects, target atomic.Int64

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// DriveWith registers the application and runs the poll loop with
// automatic recovery: when the daemon stops answering, the driver
// re-dials with jittered exponential backoff and transparently
// re-registers once the daemon is back (a restarted daemon has an empty
// member table, so registration is repeated, not assumed). While
// disconnected the driver holds, then decays, its target (see
// graceIntervals). The initial registration must succeed; everything
// after that is handled.
func (c *Client) DriveWith(app string, procs int, t Targeter, opts DriveOptions) (*Driver, error) {
	if opts.Interval <= 0 {
		opts.Interval = DefaultPollInterval
	}
	target, epoch, err := c.registerEpoch(app, procs, opts.Weight, spinOf(t), 0)
	if err != nil {
		return nil, err
	}
	d := &Driver{
		c: c, app: app, procs: procs, t: t, opts: opts,
		done: make(chan struct{}),
	}
	d.apply(target, epoch)
	d.wg.Add(1)
	go d.loop()
	return d, nil
}

// Applied returns the highest rebalance epoch this driver has applied.
func (d *Driver) Applied() uint64 { return d.applied.Load() }

// Stats returns a snapshot of the driver's health: its counts, its
// target, and whether and how long ago the daemon was lost.
func (d *Driver) Stats() DriveStats {
	s := DriveStats{
		Polls: d.polls.Load(), PollErrors: d.pollErrors.Load(),
		Redials: d.redials.Load(), Reconnects: d.reconnects.Load(),
		Target: int(d.target.Load()),
	}
	if at := d.lostAt.Load(); at != nil {
		s.Degraded, s.DegradedFor = true, time.Since(*at)
	}
	return s
}

// Stop ends the loop and unregisters the application (best-effort if
// the daemon is unreachable).
func (d *Driver) Stop() {
	d.once.Do(func() {
		close(d.done)
		d.wg.Wait()
		_ = d.c.Unregister(d.app)
	})
}

// apply pushes a target to the application. The epoch (0 for the
// degraded-mode decay) is handed through to the application, stamped
// into the apply flight event, and remembered for the ack the next wire
// round carries; newEpoch reports whether it advanced the driver's
// applied-epoch watermark, so the loop can ack promptly instead of
// waiting out the poll interval.
func (d *Driver) apply(target int, epoch uint64) (newEpoch bool) {
	prev := d.target.Load()
	if epoch != 0 && epoch < d.applied.Load() {
		// A daemon's epochs only grow, and one that recovers its journal
		// resumes its count: an older epoch means the daemon restarted
		// without its journal and counts from 1 again. Start the
		// watermark over, and the application's refusal of old epochs.
		d.applied.Store(0)
		d.t.ResetEpoch()
	}
	d.t.SetTargetEpoch(target, epoch)
	d.target.Store(int64(target))
	if epoch != 0 && epoch > d.applied.Load() {
		d.applied.Store(epoch)
		newEpoch = true
	}
	if rec := d.opts.Flight; rec != nil {
		rec.Append(flight.Event{At: time.Now().UnixMicro(), Kind: flight.KindApply,
			App: d.app, A: int64(target), B: prev, Epoch: epoch})
	}
	return newEpoch
}

// loop is the poll/reconnect state machine. It sleeps on one timer until
// its next deadline, so the interval is kept exactly as given, also
// below 25 ms. Connected, that is the next poll (nextPoll). Degraded, it
// is the earlier of the next redial, at the backoff as drawn, and the
// next decay step. The timer is reset only after its channel was read,
// which is correct under both the asynchronous timer channels of
// go.mod's `go 1.22` and the synchronous ones of later versions.
func (d *Driver) loop() {
	defer d.wg.Done()
	connected := true
	backoff := backoffMin
	var nextRedial, nextDecay time.Time

	// step does what is due at now and returns the next deadline.
	step := func(now time.Time) time.Time {
		if connected {
			target, epoch, err := d.c.pollEpoch(d.app, spinOf(d.t), d.applied.Load())
			if err == nil {
				d.polls.Add(1)
				return d.nextPoll(now, d.apply(target, epoch))
			}
			// Daemon lost: hold the last target through the grace
			// period, start the reconnect backoff immediately.
			d.pollErrors.Add(1)
			connected = false
			backoff = backoffMin
			nextRedial = now
			nextDecay = now.Add(graceIntervals * d.opts.Interval)
			lostAt := now
			d.lostAt.Store(&lostAt)
		}

		if !now.Before(nextRedial) {
			redials := d.redials.Add(1)
			if rec := d.opts.Flight; rec != nil {
				rec.Append(flight.Event{At: now.UnixMicro(), Kind: flight.KindRedial, App: d.app, A: redials})
			}
			if err := d.c.redial(); err == nil {
				// Transparent re-register: a restarted daemon has an
				// empty member table; a surviving daemon just replaces
				// the member. Either way the fresh target applies. The
				// applied-epoch ack rides along: a restarted daemon
				// resumes its epoch counter from the journal, so the
				// watermark stays meaningful across the gap (one without
				// a journal counts from 1 again, which apply detects).
				target, epoch, err := d.c.registerEpoch(d.app, d.procs, d.opts.Weight, spinOf(d.t), d.applied.Load())
				if err == nil {
					d.reconnects.Add(1)
					if rec := d.opts.Flight; rec != nil {
						rec.Append(flight.Event{At: time.Now().UnixMicro(), Kind: flight.KindReconnect, App: d.app, A: int64(target)})
					}
					d.lostAt.Store(nil)
					connected = true
					return d.nextPoll(now, d.apply(target, epoch))
				}
			}
			backoff = min(2*backoff, backoffMax)
			nextRedial = now.Add(jitter(backoff))
		}

		// Degraded decay: past the grace period, halve the gap to the
		// full process count once per poll interval. With no arbiter
		// alive, fairness has no counterparty; idling forever on a
		// stale small target would waste the machine.
		if !now.Before(nextDecay) {
			if cur := int(d.target.Load()); cur < d.procs {
				d.apply(cur+(d.procs-cur+1)/2, 0) // self-decided: no epoch to credit
			}
			nextDecay = now.Add(d.opts.Interval)
		}
		if nextDecay.Before(nextRedial) {
			return nextDecay
		}
		return nextRedial
	}

	timer := time.NewTimer(time.Until(d.nextPoll(time.Now(), d.applied.Load() != 0)))
	defer timer.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-timer.C:
		}
		timer.Reset(time.Until(step(time.Now())))
	}
}

// nextPoll is when a connected loop polls after one at now: at once when
// it has just applied a new epoch (a registration's too), so the ack
// reaches the daemon's convergence tracker without waiting out the
// interval; else one Interval later.
func (d *Driver) nextPoll(now time.Time, newEpoch bool) time.Time {
	if newEpoch {
		return now
	}
	return now.Add(d.opts.Interval)
}

// jitter spreads a backoff uniformly over [d/2, d) so reconnecting
// clients do not stampede a restarted daemon in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)/2))
}
