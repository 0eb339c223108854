// Command procctld is the central coordinator daemon: the paper's
// user-level server for real Go programs. Applications register their
// adaptive pools over a Unix or TCP socket and poll for how many workers
// they should keep runnable; procctld divides the machine's processors
// fairly among them.
//
// Observability: the -metrics HTTP listener serves the Prometheus
// exposition at /metrics, Go's profiling endpoints at /debug/pprof/, and
// expvar (including a live coordinator snapshot) at /debug/vars. SIGUSR1
// dumps the flight recorder — the ring of recent control-plane events —
// to the log without stopping anything.
//
// Usage:
//
// Durability: with -journal-dir, every membership and target transition
// is appended to a CRC-framed write-ahead log with periodic snapshots.
// On restart the daemon fscks the journal (truncating any torn tail),
// replays it, and serves the recovered registry immediately — clients
// re-poll, they never re-register. procctl-replay audits the same
// journal offline.
//
// Usage:
//
// Scale: -rebalance-batch coalesces membership storms into one
// recompute+notify per window, and -max-conns/-admit bound how much of
// a registration storm is admitted at once — the excess is shed with a
// retryable busy reply that clients back off and retry.
//
// Usage:
//
//	procctld [-listen unix:/tmp/procctld.sock] [-capacity N] [-metrics HOST:PORT]
//	         [-journal-dir DIR] [-snapshot-every N] [-fsync-every N]
//	         [-rebalance-batch D] [-max-conns N] [-admit N]
//	         [-log-level debug|info|warn|error] [-log-json] [-v]
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"procctl/internal/journal"
	"procctl/internal/runtime/coordinator"
)

func main() {
	var (
		listen   = flag.String("listen", "unix:/tmp/procctld.sock", "listen address (unix:PATH or tcp:HOST:PORT)")
		capacity = flag.Int("capacity", runtime.NumCPU(), "processors to divide among applications")
		metrics  = flag.String("metrics", "", "serve metrics, pprof, and expvar over HTTP at this address (e.g. 127.0.0.1:9717)")
		lease    = flag.Duration("lease", coordinator.DefaultLease, "unregister members whose connection is silent this long (0 disables)")
		jdir     = flag.String("journal-dir", "", "persist every membership and target transition here; on restart the registry is recovered without client re-registration")
		batchWin = flag.Duration("rebalance-batch", 0, "coalesce membership and load changes into one rebalance per this window (0 = rebalance on every event)")
		maxConns = flag.Int("max-conns", 0, "cap concurrently served client connections; the excess is shed with a retryable busy reply (0 = unlimited)")
		admit    = flag.Int("admit", 0, "cap concurrently admitted registrations; the excess is shed with a retryable busy reply (0 = unlimited)")
		snapEvry = flag.Int("snapshot-every", 1024, "write a snapshot after this many journal records (0 disables periodic snapshots; a final one is still written on clean shutdown)")
		syncEvry = flag.Int("fsync-every", 0, "fsync the journal after this many appends (1 = every append, 0 = the journal's default batch of 64)")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		logJSON  = flag.Bool("log-json", false, "emit logs as JSON lines instead of text")
		verbose  = flag.Bool("v", false, "log registrations and rebalances (shorthand for -log-level debug)")
	)
	flag.Parse()

	logger, err := newLogger(os.Stderr, *logLevel, *logJSON, *verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "procctld: %v\n", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	network, addr, err := splitListen(*listen)
	if err != nil {
		fatal(logger, "bad listen address", err)
	}
	if network == "unix" {
		// A stale socket from an unclean shutdown blocks the listener.
		os.Remove(addr)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		fatal(logger, "listen", err)
	}

	leaseCfg := *lease
	if leaseCfg == 0 {
		leaseCfg = -1 // flag 0 = disabled; config negative = disabled
	}
	coord := coordinator.New(*capacity)
	srv := coordinator.NewServerWith(coord, ln, coordinator.ServerConfig{
		Lease:      leaseCfg,
		MaxConns:   *maxConns,
		AdmitLimit: *admit,
	})

	// Batching starts before recovery so even the boot-time rebalance
	// storm of a large restored registry coalesces; stopBatch flushes
	// pending work, so it must run before the final snapshot is sealed.
	stopBatch := func() {}
	if *batchWin > 0 {
		stopBatch = coord.StartBatching(*batchWin)
	}

	// Durability: recover the previous incarnation's registry from the
	// journal, then attach a writer so this incarnation's transitions
	// are captured too. Restored members get one fresh lease to be
	// claimed by a re-connecting client before the sweep reclaims them.
	var jw *journal.Writer
	if *jdir != "" {
		start := time.Now()
		res, err := journal.Recover(*jdir)
		if err != nil {
			fatal(logger, "journal recover", err)
		}
		restored := 0
		if res.Replayed > 0 || len(res.State.Members) > 0 {
			restored = srv.Restore(res.State, start)
		}
		jw, err = journal.Open(*jdir, res.NextSeq, journal.Options{
			SyncEvery:     *syncEvry,
			SnapshotEvery: *snapEvry,
			Metrics:       coord.Metrics(),
			NowMicros:     func() int64 { return time.Now().UnixMicro() },
		})
		if err != nil {
			fatal(logger, "journal open", err)
		}
		coord.SetJournal(jw)
		reg := coord.Metrics()
		reg.Gauge("journal_recovery_micros", "time the last boot spent recovering the journal").Set(time.Since(start).Microseconds())
		reg.Gauge("journal_recovered_members", "members restored from the journal at the last boot").Set(int64(restored))
		reg.Gauge("journal_recovered_records", "records replayed from the journal at the last boot").Set(int64(res.Replayed))
		reg.Gauge("journal_truncated_bytes", "bytes of torn or corrupt tail discarded at the last boot").Set(res.TruncatedBytes)
		// The restart record goes first so a replay re-sorts the
		// membership the way Restore just did; then capacity, so the
		// replayer divides the same total this incarnation does.
		if restored > 0 {
			coord.RecordEvent(journal.Record{
				At: start.UnixMicro(), Kind: journal.KindRestart,
				A: int64(restored), B: res.TruncatedBytes,
			})
		}
		if err := coord.SetCapacity(*capacity); err != nil {
			fatal(logger, "set capacity", err)
		}
		coord.Rebalance()
		for _, note := range res.Notes {
			logger.Warn("journal fsck", "note", note)
		}
		logger.Info("journal recovered",
			"dir", *jdir, "members", restored, "records", res.Replayed,
			"snapshot_seq", res.SnapshotSeq, "truncated_bytes", res.TruncatedBytes,
			"took", time.Since(start).String())
	}

	logger.Info("procctld started",
		"capacity", *capacity, "addr", ln.Addr().String(), "lease", lease.String(),
		"rebalance_batch", batchWin.String(), "max_conns", *maxConns, "admit", *admit)

	// Expose the coordinator's live state through expvar alongside the
	// runtime's built-ins. Publish here (not in metricsHandler) — expvar
	// panics on duplicate names, and tests build the handler repeatedly.
	expvar.Publish("coordinator", expvar.Func(func() any { return coord.Snapshot() }))

	var metricsSrv *http.Server
	if *metrics != "" {
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fatal(logger, "metrics listen", err)
		}
		metricsSrv = &http.Server{Handler: metricsHandler(coord)}
		go func() {
			if err := metricsSrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				logger.Error("metrics serve failed", "err", err)
			}
		}()
		logger.Info("introspection HTTP listener up",
			"metrics", fmt.Sprintf("http://%s/metrics", mln.Addr()),
			"pprof", fmt.Sprintf("http://%s/debug/pprof/", mln.Addr()),
			"expvar", fmt.Sprintf("http://%s/debug/vars", mln.Addr()))
	}

	if logger.Enabled(context.Background(), slog.LevelDebug) {
		go logChanges(logger, coord)
	}

	// SIGUSR1 dumps the flight recorder to the log; SIGINT/SIGTERM shut
	// down cleanly.
	dump := make(chan os.Signal, 1)
	signal.Notify(dump, syscall.SIGUSR1)
	go func() {
		for range dump {
			dumpFlight(logger, coord)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	shuttingDown := make(chan struct{}) // closed once a signal arrives
	shutdownDone := make(chan struct{}) // closed when shutdown work finished
	go func() {
		<-sig
		close(shuttingDown)
		logger.Info("shutting down")
		if metricsSrv != nil {
			metricsSrv.Close()
		}
		srv.Close()
		// Flush any rebalance still pending in the batch window before
		// sealing the final snapshot, so no dirty fleet is stranded.
		stopBatch()
		if jw != nil {
			// Close-path unregisters are quiet, so the registry is
			// still intact: seal it into a final snapshot for the next
			// incarnation, then stop journaling.
			if err := jw.WriteSnapshot(srv.JournalState(time.Now().UnixMicro())); err != nil {
				logger.Error("final snapshot failed", "err", err)
			}
			jw.Close()
		}
		if network == "unix" {
			os.Remove(addr)
		}
		close(shutdownDone)
	}()

	err = srv.Serve()
	// Serve returns as soon as srv.Close() runs; if that was the signal
	// path, wait for the final snapshot before exiting the process.
	select {
	case <-shuttingDown:
		<-shutdownDone
	default:
	}
	if err != nil && !isClosed(err) {
		fatal(logger, "serve", err)
	}
}

// newLogger builds the daemon's slog.Logger from the log flags.
func newLogger(w io.Writer, level string, json, verbose bool) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", level)
	}
	if verbose {
		lvl = slog.LevelDebug
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if json {
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return slog.New(slog.NewTextHandler(w, opts)), nil
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}

// dumpFlight logs every retained flight-recorder event, oldest first.
func dumpFlight(logger *slog.Logger, coord *coordinator.Coordinator) {
	evs := coord.Events(0)
	rec := coord.FlightRecorder()
	logger.Info("flight recorder dump",
		"events", len(evs), "total", rec.Total(), "dropped", rec.Dropped())
	for _, ev := range evs {
		logger.Info("flight event",
			"seq", ev.Seq, "at_us", ev.At, "kind", ev.Kind, "app", ev.App, "a", ev.A, "b", ev.B)
	}
}

// splitListen parses "unix:/path" or "tcp:host:port".
func splitListen(s string) (network, addr string, err error) {
	i := strings.Index(s, ":")
	if i < 0 {
		return "", "", fmt.Errorf("listen address %q needs a network prefix (unix: or tcp:)", s)
	}
	network, addr = s[:i], s[i+1:]
	switch network {
	case "unix", "tcp":
		return network, addr, nil
	default:
		return "", "", fmt.Errorf("unsupported network %q", network)
	}
}

func isClosed(err error) bool {
	return strings.Contains(err.Error(), "use of closed network connection")
}

// metricsHandler serves the daemon's introspection surface: the
// coordinator's registry in the Prometheus text exposition format at
// /metrics, Go's profiling endpoints at /debug/pprof/, expvar at
// /debug/vars, and a plain GET / index pointing at all three. pprof and
// expvar are mounted explicitly so nothing depends on the side effects
// of http.DefaultServeMux.
func metricsHandler(coord *coordinator.Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		coord.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "procctld introspection: /metrics, /debug/pprof/, /debug/vars")
	})
	return mux
}

// logChanges logs the target table whenever the membership changes,
// checking twice a second.
func logChanges(logger *slog.Logger, coord *coordinator.Coordinator) {
	last := int64(-1)
	for range time.Tick(500 * time.Millisecond) {
		n := coord.Rebalances()
		if n == last {
			continue
		}
		last = n
		targets := coord.Targets()
		attrs := make([]any, 0, 2*len(targets))
		for _, name := range coord.Members() {
			attrs = append(attrs, name, targets[name])
		}
		logger.Debug("targets", attrs...)
	}
}
