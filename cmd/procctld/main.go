// Command procctld is the central coordinator daemon: the paper's
// user-level server for real Go programs. Applications register their
// adaptive pools over a Unix or TCP socket and poll for how many workers
// they should keep runnable; procctld divides the machine's processors
// fairly among them.
//
// Observability: the -metrics HTTP listener serves the Prometheus
// exposition at /metrics, Go's profiling endpoints at /debug/pprof/, and
// expvar's memstats at /debug/vars. SIGUSR1 dumps the flight recorder —
// the ring of recent control-plane events — to the log without stopping
// anything.
//
// Durability: with -journal-dir, every membership and target transition
// is appended to a CRC-framed write-ahead log with periodic snapshots.
// On restart the daemon fscks the journal (truncating any torn tail),
// replays it, and serves the recovered registry immediately — clients
// re-poll, they never re-register. procctl-replay audits the same
// journal offline.
//
// Scale: -rebalance-batch coalesces membership storms into one
// recompute+notify per window. Every registration is admitted: what
// bounds a connection is its 64 KiB request line, the closed op set,
// name validation, the lease and the reply-write timeout.
//
// Usage:
//
//	procctld [-listen unix:/tmp/procctld.sock] [-capacity N] [-metrics HOST:PORT]
//	         [-journal-dir DIR] [-snapshot-every N] [-fsync-every N]
//	         [-rebalance-batch D] [-lease D]
//	         [-log-level debug|info|warn|error] [-log-json]
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"io/fs"
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
		snapEvry = flag.Int("snapshot-every", 1024, "cut a snapshot after this many journal records (0 disables periodic snapshots; a final one is still written on clean shutdown). The cut is made at the end of a journal drain; the snapshot is written by the journal's sync, so no request waits on its disk write above -fsync-every 1")
		syncEvry = flag.Int("fsync-every", 0, "fsync the journal once this many appends wait (0 = the journal's default of 64; 1 = each write, before its operations are acknowledged; above 1 on a goroutine of its own, so no request waits on the disk). Every record reaches the kernel before its operation is acknowledged")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		logJSON  = flag.Bool("log-json", false, "emit logs as JSON lines instead of text")
	)
	flag.Parse()

	logger, err := newLogger(os.Stderr, *logLevel, *logJSON)
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
		if err := removeStaleSocket(addr); err != nil {
			fatal(logger, "listen", err)
		}
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		fatal(logger, "listen", err)
	}

	coord := coordinator.New(*capacity)
	srv := coordinator.NewServerWith(coord, ln, *lease)

	// Batching starts before recovery so even the boot-time rebalance
	// storm of a large restored registry coalesces; stopBatch flushes
	// pending work, so it must run before the final snapshot is sealed.
	stopBatch := func() {}
	if *batchWin > 0 {
		stopBatch = coord.StartBatching(*batchWin)
	}

	// Durability: recover the previous incarnation's registry, journal this one's.
	if *jdir != "" {
		start := time.Now()
		res, err := srv.Boot(*jdir, journal.Options{SyncEvery: *syncEvry, SnapshotEvery: *snapEvry,
			Metrics: coord.Metrics(), NowMicros: func() int64 { return time.Now().UnixMicro() }})
		if err != nil {
			fatal(logger, "journal boot", err)
		}
		for _, note := range res.Notes {
			logger.Warn("journal fsck", "note", note)
		}
		logger.Info("journal recovered",
			"dir", *jdir, "members", len(res.State.Members), "records", res.Replayed,
			"snapshot_seq", res.SnapshotSeq, "truncated_bytes", res.TruncatedBytes,
			"took", time.Since(start).String())
	}

	logger.Info("procctld started",
		"capacity", coord.Snapshot().Get("coordinator_capacity").Value, "addr", ln.Addr().String(), "lease", lease.String(),
		"rebalance_batch", batchWin.String())

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
		if jw := coord.Journal(); jw != nil {
			// Close-path unregisters are quiet, so the registry is
			// still intact: seal it into a final snapshot for the next
			// incarnation, then stop journaling.
			if err := jw.WriteSnapshot(srv.JournalState(time.Now().UnixMicro())); err != nil {
				logger.Error("final snapshot failed", "err", err)
			}
			if err := jw.Close(); err != nil {
				logger.Error("journal close failed", "err", err)
			}
		}
		// srv.Close closed the listener, which unlinked its socket.
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
	if err != nil && !errors.Is(err, net.ErrClosed) {
		fatal(logger, "serve", err)
	}
}

// newLogger builds the daemon's slog.Logger from the log flags.
func newLogger(w io.Writer, level string, json bool) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", level)
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
	rec := coord.FlightRecorder()
	evs := rec.Snapshot(0)
	logger.Info("flight recorder dump",
		"events", len(evs), "total", rec.Total(), "dropped", rec.Dropped())
	for _, ev := range evs {
		logger.Info("flight event",
			"seq", ev.Seq, "at_us", ev.At, "kind", ev.Kind, "app", ev.App, "a", ev.A, "b", ev.B, "epoch", ev.Epoch)
	}
}

// removeStaleSocket removes the socket at path when no daemon answers on
// it, as after an unclean shutdown, where it would block the listener. It
// leaves a live daemon's socket, and anything that is not a socket, in
// place and returns an error that names path.
func removeStaleSocket(path string) error {
	fi, err := os.Lstat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if fi.Mode().Type() != fs.ModeSocket {
		return fmt.Errorf("%s exists and is not a socket", path)
	}
	conn, err := net.Dial("unix", path)
	if err == nil {
		conn.Close()
		return fmt.Errorf("%s is in use: another daemon answers on it", path)
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		return fmt.Errorf("%s: %w", path, err)
	}
	return os.Remove(path)
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
