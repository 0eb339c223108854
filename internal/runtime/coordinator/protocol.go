package coordinator

import (
	"procctl/internal/flight"
	"procctl/internal/metrics"
)

// The wire protocol is JSON objects, one per line, over any stream
// connection (Unix socket by default, TCP if asked) — the modern
// analogue of the paper's UMAX socket IPC between applications and the
// central server.
//
//	-> {"op":"register","app":"fft","procs":16,"weight":1}
//	<- {"ok":true,"target":8}
//	-> {"op":"poll","app":"fft"}
//	<- {"ok":true,"target":8}
//	-> {"op":"unregister","app":"fft"}
//	<- {"ok":true}
//	-> {"op":"setload","load":2}
//	<- {"ok":true}
//	-> {"op":"status"}
//	<- {"ok":true,"status":{...}}
//	-> {"op":"metrics"}
//	<- {"ok":true,"metrics":{"at":...,"metrics":[...]}}
//	-> {"op":"events","limit":100,"since":42,"epoch":7}
//	<- {"ok":true,"events":[{"seq":...,"at":...,"kind":"register",...},...]}
//	-> {"op":"converge","limit":8}
//	<- {"ok":true,"converge":[{"epoch":7,"members":2,"outcome":"settled",...},...]}
//
// Framing is one message per newline-terminated line, and wire.go is
// the only code that frames, encodes or decodes: the everyday messages
// (register, poll, unregister and their replies, spin_pct and
// applied_epoch included) by a scanner and appends that allocate
// nothing, everything else by encoding/json on the same line, so the
// bytes are the ones json.Encoder has always written. A request line
// is at most 64 KiB (maxRequestLine); a longer one gets one error
// reply and the connection is closed. Replies are not bounded. This is
// narrower than the streaming decoder the server used to run: a JSON
// value spread over several lines, or two values on one line, now
// drops the connection as malformed input does. No client or script in
// this repository ever sent either. An op outside the eight above is
// refused and counted under the one label op="unknown".
//
// An application name is 1-64 characters of [A-Za-z0-9._:-]
// (validAppName): it becomes a field of journal records, flight events
// and log lines (never a metric label), and nothing downstream quotes
// it. Register refuses any other name
// with an error reply; no other op checks, because a name that was
// never registered is not found.
//
// Register and poll responses carry the epoch of the rebalance that
// computed the returned target; clients echo the highest epoch they
// have applied back as applied_epoch, which is how the daemon's
// convergence tracker learns a decision has reached the fleet.
//
// Registrations are owned by their connection: when the connection
// drops, its applications are unregistered and their processors are
// redistributed, so a crashed application cannot pin capacity. A name
// registered again — on any connection — is a new registration that
// takes the name over: the connection that held it before can no longer
// unregister it, by request or by dropping. Clients
// that die without dropping the connection (SIGSTOP, half-open TCP) are
// caught by the lease: a connection silent for longer than the server's
// lease (default 18 s, three missed polls) is closed by the sweep and
// cleaned up the same way.

// maxAppName is the longest application name register accepts.
const maxAppName = 64

// validAppName reports whether name may be registered (see above).
func validAppName(name string) bool {
	if name == "" || len(name) > maxAppName {
		return false
	}
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// Request is one client message.
type Request struct {
	Op     string `json:"op"`
	App    string `json:"app,omitempty"`
	Procs  int    `json:"procs,omitempty"`
	Weight int    `json:"weight,omitempty"`
	Load   int    `json:"load,omitempty"`
	// SpinPct optionally reports what share of the application's worker
	// time is currently idle-wait rather than useful work (pool
	// SpinPercent). Both sides treat it as best-effort telemetry: old
	// daemons ignore the field, old clients never send it, and the
	// pointer distinguishes "not reported" from a genuine 0%.
	SpinPct *float64 `json:"spin_pct,omitempty"`
	// Limit caps how many flight-recorder events an "events" request
	// returns (0 = everything the ring retains); the "converge" op
	// reuses it to cap closed-epoch reports.
	Limit int `json:"limit,omitempty"`
	// Applied acknowledges the highest rebalance epoch whose target the
	// client has applied, piggybacked on register and poll. 0 means "not
	// reporting" (old clients never send the field), so the daemon's
	// convergence tracker only waits on members that speak epochs.
	Applied uint64 `json:"applied_epoch,omitempty"`
	// Since filters an "events" dump to sequence numbers >= Since, so a
	// post-mortem can resume from where the last dump stopped instead of
	// re-reading the whole ring.
	Since uint64 `json:"since,omitempty"`
	// Epoch filters an "events" dump to records stamped with this epoch
	// (0 = no filter).
	Epoch uint64 `json:"epoch,omitempty"`
}

// Response is one server reply.
type Response struct {
	OK      bool              `json:"ok"`
	Error   string            `json:"error,omitempty"`
	Target  int               `json:"target,omitempty"`
	Status  *Status           `json:"status,omitempty"`
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// Epoch is the rebalance epoch that computed Target, served with
	// register and poll responses so the client can stamp its apply
	// events and ack the epoch back. 0 from daemons predating epochs.
	Epoch uint64 `json:"epoch,omitempty"`
	// Events is the flight-recorder dump served by the "events" op,
	// oldest first.
	Events []flight.Event `json:"events,omitempty"`
	// Converge is the converge op's report: the most recently closed
	// epochs, newest first.
	Converge []ConvergeInfo `json:"converge,omitempty"`
	// Busy marks a retryable admission rejection: the server shed this
	// request under load (connection cap or registration-admission
	// limit) rather than failing it. Clients should back off and retry;
	// RetryAfterMs is the server's advisory minimum wait.
	Busy         bool `json:"busy,omitempty"`
	RetryAfterMs int  `json:"retry_after_ms,omitempty"`
}

// Status is the coordinator state snapshot served to inspectors: the
// membership as the registry holds it. Latencies are not in it; they are
// series of the metrics op.
type Status struct {
	Capacity     int `json:"capacity"`
	ExternalLoad int `json:"external_load"`
	// LeaseSeconds is the server's configured lease (0 when expiry is
	// disabled).
	LeaseSeconds float64     `json:"lease_seconds,omitempty"`
	Apps         []AppStatus `json:"apps"`
}

// AppStatus describes one registered application.
type AppStatus struct {
	Name   string `json:"name"`
	Procs  int    `json:"procs"`
	Weight int    `json:"weight"`
	Target int    `json:"target"`
	// LeaseRemaining is how many seconds of lease this member has left
	// before it is presumed dead; -1 for members without a lease
	// (in-process members, or lease expiry disabled).
	LeaseRemaining float64 `json:"lease_remaining_s"`
	// SpinPct is the member's last reported idle-wait share (in-process
	// members are sampled live); nil when the member has never reported
	// one — remote clients predating the field, or daemons predating it.
	SpinPct *float64 `json:"spin_pct,omitempty"`
}

// ConvergeInfo is one closed rebalance epoch: how long the decision
// took to propagate to every changed member, and which member closed
// it. Straggler names appear here and in the flight ring only — never
// as metric labels.
type ConvergeInfo struct {
	Epoch         uint64 `json:"epoch"`
	Members       int    `json:"members"`
	Outcome       string `json:"outcome"` // settled | superseded | expired
	LatencyMicros int64  `json:"latency_micros"`
	Straggler     string `json:"straggler,omitempty"`
	StragglerKind string `json:"straggler_kind,omitempty"` // inproc | remote | expired
	ClosedAt      int64  `json:"closed_at,omitempty"`
}

// Protocol op names.
const (
	OpRegister   = "register"
	OpPoll       = "poll"
	OpUnregister = "unregister"
	OpSetLoad    = "setload"
	OpStatus     = "status"
	OpMetrics    = "metrics"
	OpEvents     = "events"
	OpConverge   = "converge"
)
