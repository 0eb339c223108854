package coordinator

import (
	"cmp"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"procctl/internal/flight"
	"procctl/internal/journal"
	"procctl/internal/metrics"
)

// DefaultLease is how long a connection may stay silent before the
// daemon presumes its applications dead and reclaims their processors:
// three missed polls at the paper's 6-second poll interval. EOF-based
// cleanup handles clients that die cleanly; the lease handles the ones
// that don't — a SIGSTOPped process, a half-open TCP connection after a
// peer panic, a hung poll loop.
const DefaultLease = 3 * DefaultPollInterval

// DefaultIOTimeout bounds a reply write to a peer that has stopped
// draining its socket, and how long a connection over the cap may take to
// send its first request.
const DefaultIOTimeout = 10 * time.Second

// DefaultBusyRetry is the advisory minimum backoff a busy reply asks
// shed clients to wait before retrying.
const DefaultBusyRetry = 500 * time.Millisecond

// ServerConfig tunes the socket server's failure detection and
// admission backpressure. The zero value selects the defaults; a
// negative Lease disables lease expiry (EOF cleanup still applies).
type ServerConfig struct {
	// Lease is the maximum silence per connection. Any decoded request
	// renews it for every application registered on that connection.
	Lease time.Duration
	// SweepInterval is how often the sweep runs (default: Lease/6, at
	// least 100 ms). A sweep closes the connections whose lease lapsed and
	// those whose reply write has outrun IOTimeout; it runs with leases
	// disabled too.
	SweepInterval time.Duration
	// IOTimeout bounds a reply write, counted from its request's arrival.
	// The sweep enforces it: a peer that stops draining its socket is cut
	// off within IOTimeout + SweepInterval.
	IOTimeout time.Duration
	// MaxConns caps how many connections the server keeps open at once
	// (0 = unlimited). A connection accepted over the cap gets one
	// retryable busy reply to its first request and is closed — shed,
	// not errored, so a registration storm degrades into backoff rounds
	// instead of an unbounded handler-goroutine population.
	MaxConns int
	// AdmitLimit bounds how many registrations may be admitted
	// concurrently (0 = unlimited). Registrations arriving while the
	// admission semaphore is full get a retryable busy reply on their
	// live connection.
	AdmitLimit int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Lease == 0 {
		c.Lease = DefaultLease
	}
	if c.Lease < 0 {
		c.Lease = 0 // expiry disabled
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.Lease / 6
		if c.SweepInterval < 100*time.Millisecond {
			c.SweepInterval = 100 * time.Millisecond
		}
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = DefaultIOTimeout
	}
	return c
}

// remoteMember represents an application registered over a socket, and
// lives for one registration: registering a name again makes another. Its
// target is stored for the application's next poll, mirroring the
// paper's poll-based delivery; its spin% is whatever the client last
// piggybacked on a register or poll.
type remoteMember struct {
	name  string
	procs int
	// conn is the connection that registered the member. nil marks a
	// placeholder: a member restored from the journal, which a client has
	// until claimBy (zero = forever) to register again before the sweep
	// presumes it dead. So a name is whose member the registry holds for
	// it, and no table beside the registry says who owns what.
	conn    *connState
	claimBy time.Time
	// tpack holds the pending target and the epoch that computed it in
	// one word (epoch high 48 bits, target low 16), so a poll can never
	// pair a new epoch with a stale target — the torn read that would
	// make a client ack an epoch whose target it never applied. A target
	// never exceeds procs, which registration holds to maxTarget.
	tpack   atomic.Uint64
	spin    atomic.Uint64 // math.Float64bits of the reported spin%
	spinSet atomic.Bool   // false until the client first reports one
}

const (
	targetBits = 16
	maxTarget  = 1<<targetBits - 1
)

func (r *remoteMember) Name() string    { return r.name }
func (r *remoteMember) Workers() int    { return r.procs }
func (r *remoteMember) SetTarget(n int) { r.SetTargetEpoch(n, 0) }

// SetTargetEpoch stores the target for the application's next poll. It
// never applies synchronously — the ack arrives over the wire — so it
// always answers false. Newest epoch wins: rebalances push outside the
// coordinator's locks, so the older of two racing pushes can arrive
// second, and must not take a poll back to a target already replaced.
// (A remote member lives for one registration, so the epochs it compares
// all come from this daemon's counter.) Epoch 0, the placeholder before
// the first rebalance, always stores.
func (r *remoteMember) SetTargetEpoch(n int, epoch uint64) bool {
	v := epoch<<targetBits | uint64(n)&maxTarget
	for {
		held := r.tpack.Load()
		if epoch != 0 && held>>targetBits > epoch {
			return false
		}
		if r.tpack.CompareAndSwap(held, v) {
			return false
		}
	}
}

// targetEpoch returns the pending target and its epoch as one
// consistent pair.
func (r *remoteMember) targetEpoch() (int, uint64) {
	v := r.tpack.Load()
	return int(v & maxTarget), v >> targetBits
}

// noteSpin records a client-reported spin%. Requests without one (old
// client, target without instrumentation) leave the last value in place.
func (r *remoteMember) noteSpin(pct float64) {
	r.spin.Store(math.Float64bits(pct))
	r.spinSet.Store(true)
}

// spinPct returns the last reported spin%, if any was ever reported.
func (r *remoteMember) spinPct() (float64, bool) {
	if !r.spinSet.Load() {
		return 0, false
	}
	return math.Float64frombits(r.spin.Load()), true
}

// connState is the server's bookkeeping for one client connection: the
// members it registered, when it last said anything and whether a reply
// to it is being written.
type connState struct {
	conn net.Conn
	// owned is what this connection's requests may name: what it registered
	// and has not unregistered, so a poll finds its target without c.mu. The
	// registry says whose a name is now. Touched only by the handler goroutine.
	owned map[string]*remoteMember

	accepted time.Time
	lastSeen atomic.Int64 // nanoseconds after accepted, on its monotonic clock
	writing  atomic.Int64 // nanoseconds after accepted that the reply being written is counted from; 0 = not writing
	expired  atomic.Int64 // Unix microseconds of the sweep that found its lease lapsed and closed it; 0 = none did
}

func (cs *connState) touch(now time.Time) { cs.lastSeen.Store(int64(now.Sub(cs.accepted))) }

func (cs *connState) seen() time.Time { return cs.accepted.Add(time.Duration(cs.lastSeen.Load())) }

// appName makes a decoded app name's string: the member's own when this
// connection registered it, so a poll's name costs no allocation.
func (cs *connState) appName(b []byte) string {
	if m, ok := cs.owned[string(b)]; ok {
		return m.name
	}
	return string(b)
}

// Server accepts socket connections and bridges them to a Coordinator.
type Server struct {
	coord *Coordinator
	ln    net.Listener
	cfg   ServerConfig

	mu    sync.Mutex
	conns map[net.Conn]*connState
	// placeholders are those Restore seated and unclaimedBy their claim
	// deadline, until the sweep that follows it has reclaimed the unclaimed.
	placeholders []*remoteMember
	unclaimedBy  time.Time
	closed       bool

	handlers sync.WaitGroup // joins per-connection handler goroutines
	// rpcs holds the request counters of every op in wireOps, resolved
	// once; a request naming any other op counts under rpcUnknown, so a
	// client cannot mint series.
	rpcs       map[string]rpcCounters
	rpcUnknown rpcCounters

	// admit is the registration-admission semaphore (nil = unlimited):
	// a buffered channel holding one token per in-flight admitted
	// registration, try-acquired so a full house sheds instead of
	// queueing.
	admit    chan struct{}
	shedConn *metrics.Counter
	shedReg  *metrics.Counter
}

// rpcCounters are one op's coordinator_rpcs_total and
// coordinator_rpc_errors_total series.
type rpcCounters struct{ served, rejected *metrics.Counter }

func newRPCCounters(reg *metrics.Registry, op string) rpcCounters {
	return rpcCounters{
		served:   reg.Counter(metrics.Name("coordinator_rpcs_total", "op", op), "socket requests served"),
		rejected: reg.Counter(metrics.Name("coordinator_rpc_errors_total", "op", op), "socket requests rejected"),
	}
}

// NewServer wraps a coordinator and a listener with the default failure
// detection (18 s leases). Call Serve to start accepting.
func NewServer(coord *Coordinator, ln net.Listener) *Server {
	return NewServerWith(coord, ln, ServerConfig{})
}

// NewServerWith is NewServer with explicit lease and timeout settings.
func NewServerWith(coord *Coordinator, ln net.Listener, cfg ServerConfig) *Server {
	s := &Server{
		coord:    coord,
		ln:       ln,
		cfg:      cfg.withDefaults(),
		conns:    make(map[net.Conn]*connState),
		shedConn: coord.Metrics().Counter(metrics.Name("coordinator_admission_shed_total", "reason", "conns"), "connections shed with a busy reply at the connection cap"),
		shedReg:  coord.Metrics().Counter(metrics.Name("coordinator_admission_shed_total", "reason", "register"), "registrations shed with a busy reply at the admission limit"),
	}
	if s.cfg.AdmitLimit > 0 {
		s.admit = make(chan struct{}, s.cfg.AdmitLimit)
	}
	s.rpcs = make(map[string]rpcCounters, len(wireOps))
	for _, op := range wireOps {
		s.rpcs[op] = newRPCCounters(coord.Metrics(), op)
	}
	s.rpcUnknown = newRPCCounters(coord.Metrics(), "unknown")
	openConns := coord.Metrics().Gauge("coordinator_open_conns", "client connections currently served")
	coord.Metrics().OnCollect(func() {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		openConns.Set(int64(n))
	})
	return s
}

// Restore re-seats a recovered registry before the server starts
// accepting: every journaled member comes back as a placeholder — a
// remote member of no connection — holding its last decided target (so
// the first rebalance journals only genuine changes), and external load
// and the rebalance count resume where the old incarnation left off.
// Placeholders get a fresh lease from now — the daemon cannot know which
// clients survived its downtime, and the persisted LastSeen predates it —
// so each has one full lease to be claimed (an OpRegister for its name)
// before the sweep reclaims its processors. Returns how many members were
// restored.
//
// Restore neither rebalances nor journals; the caller attaches the
// journal and triggers the first rebalance once boot-time state (a
// restart record, the capacity flag) has been appended.
func (s *Server) Restore(st journal.State, now time.Time) int {
	var claimBy time.Time
	if s.cfg.Lease > 0 {
		claimBy = now.Add(s.cfg.Lease)
	}
	members := s.coord.restore(st, claimBy)
	s.mu.Lock()
	s.placeholders, s.unclaimedBy = members, claimBy
	s.mu.Unlock()
	return len(members)
}

// JournalState is the snapshot the journal persists: a copy of the
// registry — every member's registration facts and last decided target,
// the scalar settings, the lifetime rebalance count — taken as the journal
// receives the last record that led to it, members sorted by name as
// journal replay reconstructs the same state, so a snapshot and a replayed
// prefix of equal history marshal to equal bytes.
func (s *Server) JournalState(at int64) journal.State {
	return journal.Snapshot(s.coord.journalFlush(true), 0, at)
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Coordinator exposes the server's coordinator (introspection, tests).
func (s *Server) Coordinator() *Coordinator { return s.coord }

// Serve accepts connections until Close, running the sweep in the
// background. It always returns a non-nil error; after Close the error
// is net.ErrClosed.
func (s *Server) Serve() error {
	done := make(chan struct{})
	defer close(done)
	go s.sweepLoop(done)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return err
		}
		cs := &connState{conn: conn, owned: make(map[string]*remoteMember), accepted: time.Now()}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		shed := s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns
		s.conns[conn] = cs
		// Add inside the critical section that checks closed, so a
		// concurrent Close cannot Wait between the check and the Add.
		s.handlers.Add(1)
		s.mu.Unlock()
		if shed {
			s.shedConn.Inc()
			go s.rejectBusy(cs)
			continue
		}
		go s.handle(cs)
	}
}

// rejectBusy serves a connection accepted over the MaxConns cap: it
// answers the first request with a retryable busy reply and closes.
// The connection is tracked in s.conns (so Close tears it down) and in
// the handlers WaitGroup (so Close waits for it), same as a served one.
func (s *Server) rejectBusy(cs *connState) {
	defer s.handlers.Done()
	conn := cs.conn
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	_ = conn.SetReadDeadline(cs.accepted.Add(s.cfg.IOTimeout))
	rd := lineReader{r: conn, max: maxRequestLine}
	line, err := rd.readLine()
	if err != nil {
		return
	}
	var req Request
	var spin float64
	if decodeRequest(line, &req, &spin, cs.appName) != nil {
		return
	}
	resp := busyResp("connection limit reached")
	_, _ = s.reply(cs, nil, &resp, time.Now())
}

// reply encodes resp into buf and sends it to cs with one write, marked
// as in progress since now so that the sweep cuts the connection off if
// the write outruns the I/O timeout. It returns buf for the next reply.
func (s *Server) reply(cs *connState, buf []byte, resp *Response, now time.Time) ([]byte, error) {
	buf, err := appendResponse(buf[:0], resp)
	if err != nil {
		return buf, err
	}
	cs.writing.Store(int64(now.Sub(cs.accepted)))
	_, err = cs.conn.Write(buf)
	cs.writing.Store(0)
	return buf, err
}

// sweepLoop runs the sweep every SweepInterval until done closes.
func (s *Server) sweepLoop(done chan struct{}) {
	ticker := time.NewTicker(s.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			s.sweep(time.Now())
		}
	}
}

// sweep is each connection's only clock. With leases on, it marks every
// connection silent since before now-Lease expired and closes it: the
// handler's read fails and its release removes the members, their lease
// expiries recorded with their removal. It closes a connection whose reply
// write has outrun the I/O timeout the same way, as a plain departure. It
// also reclaims the placeholders whose grace lease lapsed — they have no
// connection to close, so the sweep drops them itself, those a client
// claimed (the name is another member's now) passed over.
func (s *Server) sweep(now time.Time) {
	deadline := now.Add(-s.cfg.Lease)
	var silent, stuck []*connState
	var reap []*remoteMember
	s.mu.Lock()
	for _, cs := range s.conns {
		if s.cfg.Lease > 0 && cs.seen().Before(deadline) {
			silent = append(silent, cs)
		} else if w := cs.writing.Load(); w != 0 && now.Sub(cs.accepted)-time.Duration(w) > s.cfg.IOTimeout {
			stuck = append(stuck, cs)
		}
	}
	if !s.unclaimedBy.IsZero() && s.unclaimedBy.Before(now) {
		reap, s.placeholders, s.unclaimedBy = s.placeholders, nil, time.Time{}
	}
	s.mu.Unlock()
	for _, cs := range silent {
		cs.expired.Store(now.UnixMicro())
		cs.conn.Close()
	}
	for _, cs := range stuck {
		cs.conn.Close()
	}
	s.coord.drop(reap, true, now.UnixMicro())
}

// Close stops the listener, drops every connection (unregistering
// their applications), and waits for the handler goroutines to finish
// their cleanup, so no handler outlives the server.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.handlers.Wait()
	return err
}

// release forgets a dropped connection and removes what it registered
// and still holds, names ascending: a restarted client may have registered
// one of the names again from a fresh connection while this one was dying.
func (s *Server) release(cs *connState) {
	s.mu.Lock()
	closed := s.closed
	delete(s.conns, cs.conn)
	s.mu.Unlock()
	members := make([]*remoteMember, 0, len(cs.owned))
	for _, m := range cs.owned {
		members = append(members, m)
	}
	slices.SortFunc(members, func(a, b *remoteMember) int { return cmp.Compare(a.name, b.name) })
	// Server shutdown is not member departure: the journal's registry
	// stays intact for the next incarnation.
	s.coord.drop(members, !closed, cs.expired.Load())
}

// handle serves one connection until it drops (EOF, error, or lease
// sweep), then releases it.
func (s *Server) handle(cs *connState) {
	defer s.handlers.Done()
	conn := cs.conn
	defer func() {
		conn.Close()
		s.release(cs)
	}()

	// Everything a request needs lives as long as the connection, so a
	// steady-state poll allocates nothing, and it sets no deadline: the
	// sweep bounds both the silence and the reply write. now is read once
	// per request and serves the lease, the write's start and the ack
	// timestamp.
	var (
		rd    = lineReader{r: conn, max: maxRequestLine}
		name  = cs.appName
		req   Request
		spin  float64
		resp  Response
		reply []byte
	)
	for {
		line, err := rd.readLine()
		now := time.Now()
		if err == errLineTooLong {
			s.rpcUnknown.served.Inc()
			s.rpcUnknown.rejected.Inc()
			resp = errResp(err)
			_, _ = s.reply(cs, reply, &resp, now)
			return
		}
		if err != nil || decodeRequest(line, &req, &spin, name) != nil {
			return // EOF, closed by the sweep, or broken peer: drop the connection
		}
		cs.touch(now) // any op renews the connection's leases
		resp = s.dispatch(&req, cs, now)
		if reply, err = s.reply(cs, reply, &resp, now); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req *Request, cs *connState, now time.Time) Response {
	n, ok := s.rpcs[req.Op]
	if !ok {
		n = s.rpcUnknown
	}
	n.served.Inc()
	resp := s.dispatchOp(req, cs, now)
	if !resp.OK {
		n.rejected.Inc()
	}
	return resp
}

func (s *Server) dispatchOp(req *Request, cs *connState, now time.Time) Response {
	owned := cs.owned
	switch req.Op {
	case OpRegister:
		// A target never exceeds procs, and maxTarget is what fits beside
		// the epoch in a remote member's one word.
		if req.App == "" || req.Procs < 1 || req.Procs > maxTarget {
			return errResp(fmt.Errorf("register needs app and procs in [1, %d]", maxTarget))
		}
		if !validAppName(req.App) {
			return errResp(fmt.Errorf("register: app name %q is not 1-%d characters of [A-Za-z0-9._:-]", req.App, maxAppName))
		}
		if s.admit != nil {
			select {
			case s.admit <- struct{}{}:
				defer func() { <-s.admit }()
			default:
				s.shedReg.Inc()
				return busyResp("registration admission limit reached")
			}
		}
		m := &remoteMember{name: req.App, procs: req.Procs, conn: cs}
		// Until the first rebalance lands (immediately below when
		// rebalancing inline, at the next flush when batching), the
		// member's pending target is its own process count: run
		// uncontrolled rather than at zero.
		m.SetTargetEpoch(req.Procs, 0)
		if req.SpinPct != nil {
			m.noteSpin(*req.SpinPct)
		}
		// The name is m's from here on, whoever held it: a dying predecessor's
		// release and the sweep pass over a name that is no longer theirs.
		s.coord.RegisterWeighted(m, req.Weight)
		owned[req.App] = m
		if req.Applied > 0 {
			// A reconnecting client may still be acking an epoch the
			// previous incarnation of its registration was pushed.
			s.coord.AckApplied(req.App, req.Applied, now.UnixMicro())
		}
		target, epoch := m.targetEpoch()
		return Response{OK: true, Target: target, Epoch: epoch}

	case OpPoll:
		m, ok := owned[req.App]
		if !ok {
			return errResp(fmt.Errorf("app %q not registered on this connection", req.App))
		}
		if req.SpinPct != nil {
			m.noteSpin(*req.SpinPct)
		}
		if req.Applied > 0 {
			s.coord.AckApplied(req.App, req.Applied, now.UnixMicro())
		}
		target, epoch := m.targetEpoch()
		return Response{OK: true, Target: target, Epoch: epoch}

	case OpUnregister:
		m, ok := owned[req.App]
		if !ok {
			return errResp(fmt.Errorf("app %q not registered on this connection", req.App))
		}
		delete(owned, req.App)
		s.coord.drop([]*remoteMember{m}, true, 0)
		return Response{OK: true}

	case OpSetLoad:
		s.coord.SetExternalLoad(req.Load)
		return Response{OK: true}

	case OpStatus:
		return Response{OK: true, Status: s.status()}

	case OpMetrics:
		return Response{OK: true, Metrics: s.coord.Snapshot()}

	case OpEvents:
		return Response{OK: true, Events: filterEvents(s.coord.Events(0), req.Since, req.Epoch, req.Limit)}

	case OpConverge:
		return Response{OK: true, Converge: s.coord.conv.Reports(req.Limit)}

	default:
		return errResp(fmt.Errorf("unknown op %q", req.Op))
	}
}

// status reads the registry and then, with no coordinator lock held, the
// members themselves: live Workers counts, leases and spin%.
func (s *Server) status() *Status {
	st := &Status{
		Capacity:     s.coord.Capacity(),
		ExternalLoad: s.coord.ExternalLoad(),
		LeaseSeconds: s.cfg.Lease.Seconds(),
	}
	now := time.Now()
	for _, m := range s.coord.members() {
		mm := m.Handle.(*entry).m
		app := AppStatus{
			Name:           m.Key,
			Procs:          mm.Workers(),
			Weight:         m.Weight,
			Target:         running(&m),
			LeaseRemaining: -1, // in-process members have no lease
		}
		switch mm := mm.(type) {
		case *remoteMember:
			if s.cfg.Lease > 0 {
				end := mm.claimBy // a placeholder's lease is its claim deadline
				if mm.conn != nil {
					end = mm.conn.seen().Add(s.cfg.Lease)
				}
				app.LeaseRemaining = max(end.Sub(now).Seconds(), 0)
			}
			// Remote members report over the wire; stay nil until the
			// first report so old clients render as "-" not "0%".
			if v, ok := mm.spinPct(); ok {
				app.SpinPct = &v
			}
		case interface{ SpinPercent() float64 }:
			// In-process members (e.g. *pool.Pool) are sampled live.
			v := mm.SpinPercent()
			app.SpinPct = &v
		}
		st.Apps = append(st.Apps, app)
	}
	return st
}

// filterEvents applies the events op's selection: sequence numbers >=
// since, an exact epoch stamp when epoch is non-zero, and then at most
// the limit most recent survivors (limit <= 0 keeps them all). Events
// stay oldest first.
func filterEvents(evs []flight.Event, since, epoch uint64, limit int) []flight.Event {
	if since > 0 || epoch > 0 {
		kept := evs[:0]
		for _, ev := range evs {
			if ev.Seq < since {
				continue
			}
			if epoch > 0 && ev.Epoch != epoch {
				continue
			}
			kept = append(kept, ev)
		}
		evs = kept
	}
	if limit > 0 && len(evs) > limit {
		evs = evs[len(evs)-limit:]
	}
	return evs
}

func errResp(err error) Response {
	return Response{OK: false, Error: err.Error()}
}

// busyResp is the retryable shed reply: not an error the client should
// surface, an instruction to back off and come again.
func busyResp(why string) Response {
	return Response{
		OK:           false,
		Error:        "busy: " + why,
		Busy:         true,
		RetryAfterMs: int(DefaultBusyRetry / time.Millisecond),
	}
}
