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

// ErrBusy matches (via errors.Is) any retryable admission rejection:
// the daemon shed the request under load rather than failing it.
var ErrBusy = errors.New("coordinator: busy")

// BusyError is the client-side form of a busy reply. It wraps the
// server's reason and advisory retry wait; errors.Is(err, ErrBusy)
// identifies it without unwrapping.
type BusyError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return "coordinator: " + e.Reason
}

func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// Client is an application's connection to a coordinator daemon.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	rd      lineReader // replies; unbounded, the daemon is trusted
	out     []byte     // the request line, reused
	network string     // for Redial; empty when built from NewClient
	addr    string
}

// Dial connects to a coordinator daemon, e.g. Dial("unix",
// "/run/procctld.sock") or Dial("tcp", "localhost:7717"). Clients made
// by Dial can Redial after the daemon restarts.
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("coordinator: dial %s %s: %w", network, addr, err)
	}
	c := NewClient(conn)
	c.network, c.addr = network, addr
	return c, nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, rd: lineReader{r: conn}}
}

// Close drops the connection; the daemon unregisters this client's
// applications.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// Redial replaces the connection with a fresh dial to the original
// address — after a daemon restart, or after the daemon swept this
// connection's lease. Registrations do not carry over: re-register
// every application after a successful Redial (DriveWith does this
// automatically).
func (c *Client) Redial() error {
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
	c.mu.Unlock()
	old.Close()
	return nil
}

// roundTrip sends one request and reads one response. The protocol is
// strictly request/response per connection, and c.mu IS the wire-
// protocol serializer: holding it across the write/read pair is what
// guarantees responses pair with their requests. Concurrent callers
// queueing on the mutex is therefore the intended behaviour, not a
// convoy — hence the blockinglocked pragmas below. Neither req nor the
// returned Response reaches the heap: a steady-state poll allocates
// nothing on this side either.
func (c *Client) roundTrip(req *Request) (resp Response, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.out, err = appendRequest(c.out[:0], req); err != nil {
		return resp, fmt.Errorf("coordinator: send: %w", err)
	}
	//procctl:allow-blockinglocked the mutex is the request/response wire serializer; I/O under it is the protocol
	if _, err = c.conn.Write(c.out); err != nil {
		return resp, fmt.Errorf("coordinator: send: %w", err)
	}
	//procctl:allow-blockinglocked the mutex is the request/response wire serializer; I/O under it is the protocol
	line, err := c.rd.readLine()
	if err == nil {
		err = decodeResponse(line, &resp)
	}
	if err != nil {
		return resp, fmt.Errorf("coordinator: receive: %w", err)
	}
	if !resp.OK {
		if resp.Busy {
			return resp, &BusyError{
				Reason:     resp.Error,
				RetryAfter: time.Duration(resp.RetryAfterMs) * time.Millisecond,
			}
		}
		return resp, errors.New("coordinator: " + resp.Error)
	}
	return resp, nil
}

// Register announces an application with the given process count and
// returns its initial target.
func (c *Client) Register(app string, procs int) (int, error) {
	return c.register(app, procs, nil)
}

// RegisterWeighted is Register with an explicit fair-share weight
// (weights below 1 are treated as 1 by the coordinator).
func (c *Client) RegisterWeighted(app string, procs, weight int) (int, error) {
	resp, err := c.roundTrip(&Request{Op: OpRegister, App: app, Procs: procs, Weight: weight})
	if err != nil {
		return 0, err
	}
	return resp.Target, nil
}

func (c *Client) register(app string, procs int, spin *float64) (int, error) {
	target, _, err := c.registerEpoch(app, procs, 0, spin, 0)
	return target, err
}

// registerEpoch is register carrying an optional fair-share weight,
// the applied-epoch ack, and returning the epoch of the rebalance that
// computed the target (0 from daemons predating epochs).
func (c *Client) registerEpoch(app string, procs, weight int, spin *float64, applied uint64) (int, uint64, error) {
	resp, err := c.roundTrip(&Request{Op: OpRegister, App: app, Procs: procs, Weight: weight, SpinPct: spin, Applied: applied})
	if err != nil {
		return 0, 0, err
	}
	return resp.Target, resp.Epoch, nil
}

// Poll returns the application's current target.
func (c *Client) Poll(app string) (int, error) {
	t, _, err := c.pollEpoch(app, nil, 0)
	return t, err
}

// PollEpoch polls for the current target and its epoch while
// acknowledging the highest epoch the caller has already applied
// (0 = nothing to ack). Tools and tests use it directly; DriveWith
// handles the ack bookkeeping itself.
func (c *Client) PollEpoch(app string, applied uint64) (int, uint64, error) {
	return c.pollEpoch(app, nil, applied)
}

func (c *Client) poll(app string, spin *float64) (int, error) {
	t, _, err := c.pollEpoch(app, spin, 0)
	return t, err
}

func (c *Client) pollEpoch(app string, spin *float64, applied uint64) (int, uint64, error) {
	resp, err := c.roundTrip(&Request{Op: OpPoll, App: app, SpinPct: spin, Applied: applied})
	if err != nil {
		return 0, 0, err
	}
	return resp.Target, resp.Epoch, nil
}

// Converge fetches the daemon's convergence report, with up to limit
// closed epochs (0 = everything retained). Daemons predating the op
// answer with an error.
func (c *Client) Converge(limit int) (*ConvergeStatus, error) {
	resp, err := c.roundTrip(&Request{Op: OpConverge, Limit: limit})
	if err != nil {
		return nil, err
	}
	if resp.Converge == nil {
		return nil, errors.New("coordinator: empty converge report")
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
// retains). Daemons predating the op answer with an error.
func (c *Client) Events(limit int) ([]flight.Event, error) {
	return c.EventsFiltered(limit, 0, 0)
}

// EventsFiltered is Events with the post-mortem filters: only events
// with sequence numbers >= since, and (when epoch is non-zero) only
// events stamped with that epoch. Daemons predating the filters ignore
// them and answer with the plain limited dump.
func (c *Client) EventsFiltered(limit int, since, epoch uint64) ([]flight.Event, error) {
	resp, err := c.roundTrip(&Request{Op: OpEvents, Limit: limit, Since: since, Epoch: epoch})
	if err != nil {
		return nil, err
	}
	return resp.Events, nil
}

// Targeter accepts targets; *pool.Pool satisfies it.
type Targeter interface {
	SetTarget(n int)
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

// Drive registers the application and then polls every interval,
// applying each target to t — the paper's poll loop, run for the caller,
// with automatic reconnection. It returns a stop function that
// unregisters and ends the loop.
func (c *Client) Drive(app string, procs int, t Targeter, interval time.Duration) (stop func(), err error) {
	d, err := c.DriveWith(app, procs, t, DriveOptions{Interval: interval})
	if err != nil {
		return nil, err
	}
	return d.Stop, nil
}

// DriveOptions tunes DriveWith's poll loop and its failure handling.
// The zero value selects the defaults.
type DriveOptions struct {
	// Interval is the poll period (default DefaultPollInterval, the
	// paper's 6 s).
	Interval time.Duration
	// Grace is how long after losing the daemon the last target is
	// held unchanged. Past it, the target decays toward the full
	// process count — with no arbiter alive there is no longer anyone
	// to be fair to, so the application drifts back to uncontrolled
	// behaviour rather than idling forever on a stale small target.
	// Default 2×Interval.
	Grace time.Duration
	// BackoffMin/BackoffMax bound the jittered exponential backoff
	// between reconnection attempts (defaults 100 ms and 5 s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Metrics, when non-nil, receives per-app poll/reconnect counters,
	// a degraded-mode gauge, and the client's slice of the rebalance
	// span: poll round-trip latency and the "apply" stage (response
	// received → SetTarget done).
	Metrics *metrics.Registry
	// Weight is the fair-share weight the driver registers (and
	// re-registers) with; non-positive means the default unit share.
	Weight int
	// Flight, when non-nil, receives redial/reconnect events and, for
	// every target the driver applies, an epoch-stamped apply event —
	// the client-side entries of the control plane's flight log, which
	// procctl-trace's daemon export merges with the daemon's ring.
	Flight *flight.Recorder
	// AdmitPatience bounds how long the initial registration keeps
	// retrying when the daemon sheds it with a retryable busy reply
	// (jittered exponential backoff between attempts, honouring the
	// server's advisory retry-after as a floor). Zero selects the
	// default 30 s; negative fails on the first busy reply.
	AdmitPatience time.Duration
}

func (o DriveOptions) withDefaults() DriveOptions {
	if o.Interval <= 0 {
		o.Interval = DefaultPollInterval
	}
	if o.Grace <= 0 {
		o.Grace = 2 * o.Interval
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 100 * time.Millisecond
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = 5 * time.Second
		if o.BackoffMax < o.BackoffMin {
			o.BackoffMax = o.BackoffMin
		}
	}
	if o.AdmitPatience == 0 {
		o.AdmitPatience = 30 * time.Second
	}
	if o.AdmitPatience < 0 {
		o.AdmitPatience = 0
	}
	return o
}

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

	mu     sync.Mutex
	stats  DriveStats
	lostAt time.Time // zero when connected

	// applied is the highest rebalance epoch whose target this driver
	// has pushed into the application — the value acked back to the
	// daemon on every poll and register.
	applied atomic.Uint64

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	polls, pollErrors, redials, reconnects *metrics.Counter
	degraded, targetGauge                  *metrics.Gauge
	pollMicros, applyMicros                *metrics.Histogram
}

// DriveWith registers the application and runs the poll loop with
// automatic recovery: when the daemon stops answering, the driver
// re-dials with jittered exponential backoff and transparently
// re-registers once the daemon is back (a restarted daemon has an empty
// member table, so registration is repeated, not assumed). While
// disconnected the driver applies the degraded-mode policy described on
// DriveOptions.Grace. The initial registration must succeed; everything
// after that is handled.
func (c *Client) DriveWith(app string, procs int, t Targeter, opts DriveOptions) (*Driver, error) {
	opts = opts.withDefaults()
	target, epoch, err := c.registerWithRetry(app, procs, opts.Weight, spinOf(t), opts)
	if err != nil {
		return nil, err
	}
	d := &Driver{
		c: c, app: app, procs: procs, t: t, opts: opts,
		done: make(chan struct{}),
	}
	if reg := opts.Metrics; reg != nil {
		d.polls = reg.Counter(metrics.Name("coordinator_client_polls_total", "app", app), "successful target polls")
		d.pollErrors = reg.Counter(metrics.Name("coordinator_client_poll_errors_total", "app", app), "polls that failed")
		d.redials = reg.Counter(metrics.Name("coordinator_client_redials_total", "app", app), "reconnection attempts")
		d.reconnects = reg.Counter(metrics.Name("coordinator_client_reconnects_total", "app", app), "successful re-dial + re-register cycles")
		d.degraded = reg.Gauge(metrics.Name("coordinator_client_degraded", "app", app), "1 while running without a reachable daemon")
		d.targetGauge = reg.Gauge(metrics.Name("coordinator_client_target", "app", app), "most recently applied worker target")
		d.pollMicros = reg.Histogram(metrics.Name("coordinator_client_poll_micros", "app", app),
			"poll round-trip latency", metrics.LatencyBuckets)
		d.applyMicros = reg.Histogram(metrics.Name("coordinator_rebalance_latency_micros", "stage", StageApply, "app", app),
			"rebalance span, client side: poll response received until SetTarget returned", metrics.LatencyBuckets)
	}
	d.apply(target, epoch)
	d.wg.Add(1)
	go d.loop()
	return d, nil
}

// registerWithRetry is registerEpoch plus the admission-backpressure
// protocol: a busy reply means the daemon shed the registration under
// load, so the client backs off (jittered exponential, with the
// server's advisory retry-after as a floor) and tries again until
// AdmitPatience runs out. A connection-cap shed closes the connection
// behind the reply, so each retry re-dials when the client can.
func (c *Client) registerWithRetry(app string, procs, weight int, spin *float64, opts DriveOptions) (int, uint64, error) {
	backoff := opts.BackoffMin
	deadline := time.Now().Add(opts.AdmitPatience)
	for {
		target, epoch, err := c.registerEpoch(app, procs, weight, spin, 0)
		var busy *BusyError
		if err == nil || !errors.As(err, &busy) || !time.Now().Before(deadline) {
			return target, epoch, err
		}
		wait := jitter(backoff)
		if busy.RetryAfter > wait {
			wait = busy.RetryAfter
		}
		time.Sleep(wait)
		backoff *= 2
		if backoff > opts.BackoffMax {
			backoff = opts.BackoffMax
		}
		c.mu.Lock()
		redialable := c.network != ""
		c.mu.Unlock()
		if redialable {
			_ = c.Redial() // shed connections are closed server-side
		}
	}
}

// Applied returns the highest rebalance epoch this driver has applied.
func (d *Driver) Applied() uint64 { return d.applied.Load() }

// Stats returns a snapshot of the driver's health.
func (d *Driver) Stats() DriveStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	if !d.lostAt.IsZero() {
		s.DegradedFor = time.Since(d.lostAt)
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

// apply pushes a target to the application and the stats. The SetTarget
// call is the client half of the rebalance span ("apply" stage): it is
// member code — a pool resizing, workers parking — and the histogram
// shows when *it*, not the daemon, is the tail. A non-zero epoch is
// handed through to epoch-aware applications (*pool.Pool), stamped into
// the apply flight event, and remembered for the ack the next wire
// round carries; newEpoch reports whether it advanced the driver's
// applied-epoch watermark, so the loop can ack promptly instead of
// waiting out the poll interval.
func (d *Driver) apply(target int, epoch uint64) (newEpoch bool) {
	d.mu.Lock()
	prev := d.stats.Target
	d.mu.Unlock()
	if epoch != 0 && epoch < d.applied.Load() {
		// A daemon's epochs only grow, and one that recovers its journal
		// resumes its count: an older epoch means the daemon restarted
		// without its journal and counts from 1 again. Start the
		// watermark over, and the application's refusal of old epochs.
		d.applied.Store(0)
		if r, ok := d.t.(interface{ ResetEpoch() }); ok {
			r.ResetEpoch()
		}
	}
	start := time.Now()
	if em, ok := d.t.(EpochMember); ok && epoch != 0 {
		em.SetTargetEpoch(target, epoch)
	} else {
		d.t.SetTarget(target)
	}
	if d.applyMicros != nil {
		d.applyMicros.Observe(time.Since(start).Microseconds())
	}
	d.mu.Lock()
	d.stats.Target = target
	d.mu.Unlock()
	if d.targetGauge != nil {
		d.targetGauge.Set(int64(target))
	}
	if epoch != 0 && epoch > d.applied.Load() {
		d.applied.Store(epoch)
		newEpoch = true
	}
	if rec := d.opts.Flight; rec != nil {
		rec.Append(flight.Event{At: time.Now().UnixMicro(), Kind: flight.KindApply,
			App: d.app, A: int64(target), B: int64(prev), Epoch: epoch})
	}
	return newEpoch
}

// setDegraded flips the degraded flag (and gauge); entering degraded
// mode records when the daemon was lost.
func (d *Driver) setDegraded(on bool, now time.Time) {
	d.mu.Lock()
	d.stats.Degraded = on
	if on {
		d.lostAt = now
	} else {
		d.lostAt = time.Time{}
	}
	d.mu.Unlock()
	if d.degraded != nil {
		v := int64(0)
		if on {
			v = 1
		}
		d.degraded.Set(v)
	}
}

// loop is the poll/reconnect state machine. It ticks at a fraction of
// the poll interval so reconnection attempts are not gated on the
// (possibly long) poll period.
func (d *Driver) loop() {
	defer d.wg.Done()
	step := d.opts.Interval / 10
	if step < 25*time.Millisecond {
		step = 25 * time.Millisecond
	}
	if step > time.Second {
		step = time.Second
	}
	ticker := time.NewTicker(step)
	defer ticker.Stop()

	connected := true
	backoff := d.opts.BackoffMin
	now := time.Now()
	nextPoll := now.Add(d.opts.Interval)
	if d.applied.Load() != 0 {
		// The registration response carried an epoch: ack it on the
		// first tick rather than one full poll interval later.
		nextPoll = now
	}
	var lostAt, nextRedial, nextDecay time.Time

	for {
		select {
		case <-d.done:
			return
		case now = <-ticker.C:
		}

		if connected {
			if now.Before(nextPoll) {
				continue
			}
			pollStart := time.Now()
			target, epoch, err := d.c.pollEpoch(d.app, spinOf(d.t), d.applied.Load())
			if err == nil {
				if d.pollMicros != nil {
					d.pollMicros.Observe(time.Since(pollStart).Microseconds())
				}
				d.count(func(s *DriveStats) { s.Polls++ }, d.polls)
				if d.apply(target, epoch) {
					// A fresh epoch was applied: poll again on the next
					// tick so the ack reaches the daemon's convergence
					// tracker promptly instead of one poll interval late.
					nextPoll = now
					continue
				}
				nextPoll = now.Add(d.opts.Interval)
				continue
			}
			// Daemon lost: hold the last target through the grace
			// period, start the reconnect backoff immediately.
			d.count(func(s *DriveStats) { s.PollErrors++ }, d.pollErrors)
			connected = false
			lostAt = now
			backoff = d.opts.BackoffMin
			nextRedial = now
			nextDecay = now.Add(d.opts.Grace)
			d.setDegraded(true, now)
		}

		if !now.Before(nextRedial) {
			d.count(func(s *DriveStats) { s.Redials++ }, d.redials)
			if rec := d.opts.Flight; rec != nil {
				attempts := d.Stats().Redials
				rec.Append(flight.Event{At: now.UnixMicro(), Kind: flight.KindRedial, App: d.app, A: attempts})
			}
			if err := d.c.Redial(); err == nil {
				// Transparent re-register: a restarted daemon has an
				// empty member table; a surviving daemon just replaces
				// the member. Either way the fresh target applies. The
				// applied-epoch ack rides along: a restarted daemon
				// resumes its epoch counter from the journal, so the
				// watermark stays meaningful across the gap (one without
				// a journal counts from 1 again, which apply detects).
				if target, epoch, err := d.c.registerEpoch(d.app, d.procs, d.opts.Weight, spinOf(d.t), d.applied.Load()); err == nil {
					d.count(func(s *DriveStats) { s.Reconnects++ }, d.reconnects)
					if rec := d.opts.Flight; rec != nil {
						rec.Append(flight.Event{At: time.Now().UnixMicro(), Kind: flight.KindReconnect, App: d.app, A: int64(target)})
					}
					d.setDegraded(false, now)
					d.apply(target, epoch)
					connected = true
					nextPoll = now.Add(d.opts.Interval)
					continue
				}
			}
			backoff *= 2
			if backoff > d.opts.BackoffMax {
				backoff = d.opts.BackoffMax
			}
			nextRedial = now.Add(jitter(backoff))
		}

		// Degraded decay: past the grace period, halve the gap to the
		// full process count once per poll interval. With no arbiter
		// alive, fairness has no counterparty; idling forever on a
		// stale small target would waste the machine.
		if now.Sub(lostAt) >= d.opts.Grace && !now.Before(nextDecay) {
			d.mu.Lock()
			cur := d.stats.Target
			d.mu.Unlock()
			if cur < d.procs {
				d.apply(cur+(d.procs-cur+1)/2, 0) // self-decided: no epoch to credit
			}
			nextDecay = now.Add(d.opts.Interval)
		}
	}
}

// count bumps a stats field and its optional metric together.
func (d *Driver) count(bump func(*DriveStats), c *metrics.Counter) {
	d.mu.Lock()
	bump(&d.stats)
	d.mu.Unlock()
	if c != nil {
		c.Inc()
	}
}

// jitter spreads a backoff uniformly over [d/2, d) so reconnecting
// clients do not stampede a restarted daemon in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)/2))
}
