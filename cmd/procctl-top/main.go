// Command procctl-top inspects a running procctld daemon: capacity,
// external load, each registered application's process count, current
// target and SPIN% (the share of its runnable workers' time spent parked
// waiting for work — its workers block, they do not spin), and the
// daemon's rebalance-latency quantiles (from its metrics snapshot) — a
// tiny "top" for the paper's central server. With
// -metrics it prints the daemon's full metrics snapshot instead; with -events it dumps the
// daemon's flight recorder (the ring of recent control-plane events),
// filterable by ring sequence (-since) and rebalance epoch (-epoch) and
// machine-readable with -json (the JSONL procctl-trace's daemon export
// reads). With -converge it renders the daemon's epoch convergence
// report: how long each rebalance decision took to reach every member.
// (Registrations served and refused, and open connections, are
// coordinator_rpcs_total{op="register"},
// coordinator_rpc_errors_total{op="register"} and coordinator_open_conns
// under -metrics.)
//
// Usage:
//
//	procctl-top [-connect unix:/tmp/procctld.sock] [-watch 2s] [-metrics] [-setload N]
//	            [-events N [-since SEQ] [-epoch N] [-json]] [-converge N]
//	            [-hold NAME:PROCS[:WEIGHT] [-hold-interval 1s] [-hold-events FILE]]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"procctl/internal/flight"
	"procctl/internal/metrics"
	"procctl/internal/runtime/coordinator"
	"procctl/internal/runtime/pool"
)

// maxConsecutiveFailures is how many back-to-back failed refreshes
// -watch tolerates (the daemon restarting, a dropped socket) before
// giving up. Each failure re-dials with linear backoff.
const maxConsecutiveFailures = 5

func main() {
	var (
		connect  = flag.String("connect", "unix:/tmp/procctld.sock", "daemon address (unix:PATH or tcp:HOST:PORT)")
		watch    = flag.Duration("watch", 0, "refresh continuously at this interval")
		metrics  = flag.Bool("metrics", false, "show the daemon's metrics snapshot instead of the status table")
		events   = flag.Int("events", -1, "dump the daemon's newest N flight-recorder events (0 = all retained) and exit")
		since    = flag.Uint64("since", 0, "with -events: only events after this ring sequence number")
		epoch    = flag.Uint64("epoch", 0, "with -events: only events stamped with this rebalance epoch")
		jsonOut  = flag.Bool("json", false, "with -events: one JSON event per line (procctl-trace export -source daemon input)")
		converge = flag.Int("converge", -1, "show the daemon's newest N closed convergence epochs (0 = all retained) and exit")
		setload  = flag.Int("setload", -1, "report this uncontrollable load to the daemon and exit")
		hold     = flag.String("hold", "", "register NAME:PROCS[:WEIGHT] and run a worker pool under the daemon's control until interrupted (a minimal durable client, for recovery drills)")
		holdIvl  = flag.Duration("hold-interval", time.Second, "with -hold: the driver's poll interval")
		holdDump = flag.String("hold-events", "", "with -hold: dump the client's flight ring to this file (JSONL) on exit")
	)
	flag.Parse()

	i := strings.Index(*connect, ":")
	if i < 0 {
		log.Fatalf("procctl-top: address %q needs a network prefix (unix: or tcp:)", *connect)
	}
	network, addr := (*connect)[:i], (*connect)[i+1:]
	client, err := coordinator.Dial(network, addr)
	if err != nil {
		log.Fatalf("procctl-top: %v", err)
	}
	defer func() { client.Close() }()

	if *setload >= 0 {
		if err := client.SetExternalLoad(*setload); err != nil {
			log.Fatalf("procctl-top: %v", err)
		}
		fmt.Printf("external load set to %d\n", *setload)
		return
	}

	if *hold != "" {
		if err := holdLoop(client, *hold, *holdIvl, *holdDump); err != nil {
			log.Fatalf("procctl-top: %v", err)
		}
		return
	}

	if *events >= 0 {
		evs, err := client.Events(*events, *since, *epoch)
		if err != nil {
			log.Fatalf("procctl-top: %v", err)
		}
		if *jsonOut {
			if err := flight.WriteJSONL(os.Stdout, evs); err != nil {
				log.Fatalf("procctl-top: %v", err)
			}
			return
		}
		fmt.Fprint(os.Stdout, eventsTable(evs))
		return
	}

	if *converge >= 0 {
		epochs, err := client.Converge(*converge)
		if err != nil {
			log.Fatalf("procctl-top: %v", err)
		}
		snap, err := client.Metrics()
		if err != nil {
			log.Fatalf("procctl-top: %v", err)
		}
		fmt.Fprint(os.Stdout, convergeTable(epochs, snap))
		return
	}

	refresh := func() error {
		snap, err := client.Metrics()
		if err != nil {
			return err
		}
		if *metrics {
			snap.WriteText(os.Stdout)
			return nil
		}
		st, err := client.Status()
		if err != nil {
			return err
		}
		fmt.Fprint(os.Stdout, statusTable(st, snap))
		return nil
	}

	failures := 0
	for {
		err := refresh()
		if err == nil {
			failures = 0
			if *watch <= 0 {
				return
			}
			time.Sleep(*watch)
			fmt.Println()
			continue
		}
		// One-shot mode keeps the old behaviour: report and exit.
		if *watch <= 0 {
			log.Fatalf("procctl-top: %v", err)
		}
		// In watch mode a refresh can fail transiently (daemon
		// restarting, socket briefly gone): re-dial with backoff and
		// only give up after several consecutive failures.
		failures++
		if failures >= maxConsecutiveFailures {
			log.Fatalf("procctl-top: %v (%d consecutive failures)", err, failures)
		}
		log.Print(retryMessage(err, failures, maxConsecutiveFailures-1))
		time.Sleep(time.Duration(failures) * time.Second)
		if c, derr := coordinator.Dial(network, addr); derr == nil {
			client.Close()
			client = c
		}
	}
}

// holdLoop registers NAME:PROCS[:WEIGHT] as a real worker pool driven
// by the client poll loop, until SIGINT/SIGTERM. Every pushed target
// resizes the pool, so the daemon sees genuine epoch acks and settle
// events — a minimal but complete member process for recovery and
// convergence drills. It deliberately never unregisters: killed or
// interrupted, the daemon's lease (or its journal, across a restart)
// decides what happens to the name. On exit the client's flight ring —
// apply and settle events, epoch-stamped — is dumped to dumpPath for
// procctl-trace's merged daemon export.
func holdLoop(client *coordinator.Client, spec string, interval time.Duration, dumpPath string) error {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return fmt.Errorf("bad -hold %q (want NAME:PROCS[:WEIGHT])", spec)
	}
	name := parts[0]
	procs, err := strconv.Atoi(parts[1])
	if err != nil || procs < 1 {
		return fmt.Errorf("bad -hold procs %q", parts[1])
	}
	weight := 0
	if len(parts) == 3 {
		if weight, err = strconv.Atoi(parts[2]); err != nil || weight < 1 {
			return fmt.Errorf("bad -hold weight %q", parts[2])
		}
	}
	rec := flight.New(flight.DefaultSize)
	p := pool.New(pool.Config{Name: name, Workers: procs, Flight: rec})
	defer p.Close()
	drv, err := client.DriveWith(name, procs, p, coordinator.DriveOptions{
		Interval: interval,
		Weight:   weight,
		Flight:   rec,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s registered: procs=%d weight=%d target=%d\n", name, procs, weight, drv.Stats().Target)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	last := drv.Stats().Target
loop:
	for {
		select {
		case <-sig:
			break loop
		case <-tick.C:
			if t := drv.Stats().Target; t != last {
				fmt.Printf("%s target %d -> %d (epoch %d)\n", name, last, t, drv.Applied())
				last = t
			}
		}
	}
	// No drv.Stop(): stopping would unregister, and -hold's contract is
	// to leave the lease (or journal) to decide. Just dump the ring.
	if dumpPath != "" {
		f, err := os.Create(dumpPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := flight.WriteJSONL(f, rec.Snapshot(0)); err != nil {
			return err
		}
	}
	return nil
}

// daemonGone reports whether a refresh failure means the daemon itself
// is unreachable (crashed, restarting, socket gone) rather than a
// protocol-level error it answered with.
func daemonGone(err error) bool {
	var oe *net.OpError
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ENOENT) ||
		errors.As(err, &oe)
}

// retryMessage is the -watch failure line. It distinguishes "the daemon
// is gone, reconnecting" from "the daemon answered with an error" so a
// reader can tell a restart from a misbehaving request.
func retryMessage(err error, attempt, max int) string {
	if daemonGone(err) {
		return fmt.Sprintf("procctl-top: daemon unreachable: %v (reconnecting, retry %d/%d)", err, attempt, max)
	}
	return fmt.Sprintf("procctl-top: transient error: %v (retry %d/%d)", err, attempt, max)
}

// series returns the named series of snap, or an empty one: a quantile
// of it reads 0, as of a series that has recorded nothing.
func series(snap *metrics.Snapshot, name string) *metrics.Metric {
	if m := snap.Get(name); m != nil {
		return m
	}
	return &metrics.Metric{}
}

// statusTable renders the status snapshot, including each leased
// member's remaining lease and last reported SPIN% — the share of its
// runnable workers' time parked waiting for work ("-" for members
// without one — older daemons and clients never report it, so the
// column degrades gracefully instead of showing a false 0%), and the
// rebalance-latency quantiles of every stage that has recorded a span.
func statusTable(st *coordinator.Status, snap *metrics.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "capacity %d, external load %d, %d application(s)",
		st.Capacity, st.ExternalLoad, len(st.Apps))
	if st.LeaseSeconds > 0 {
		fmt.Fprintf(&b, ", lease %gs", st.LeaseSeconds)
	}
	b.WriteByte('\n')
	if len(st.Apps) > 0 {
		fmt.Fprintf(&b, "%-20s %6s %6s %6s %6s %6s\n", "APP", "PROCS", "WEIGHT", "TARGET", "SPIN%", "LEASE")
		for _, a := range st.Apps {
			spin := "-"
			if a.SpinPct != nil {
				spin = fmt.Sprintf("%.0f%%", *a.SpinPct)
			}
			lease := "-"
			if a.LeaseRemaining >= 0 {
				lease = fmt.Sprintf("%.0fs", a.LeaseRemaining)
			}
			fmt.Fprintf(&b, "%-20s %6d %6d %6d %6s %6s\n", a.Name, a.Procs, a.Weight, a.Target, spin, lease)
		}
	}
	header := "\nrebalance latency (µs)\n" +
		fmt.Sprintf("%-12s %8s %8s %8s %8s %8s\n", "STAGE", "COUNT", "P50", "P90", "P99", "P999")
	for _, stage := range []string{coordinator.StageSnapshot, coordinator.StageRecompute, coordinator.StageNotify, coordinator.StageTotal} {
		m := series(snap, metrics.Name("coordinator_rebalance_latency_micros", "stage", stage))
		if m.Count == 0 {
			continue
		}
		b.WriteString(header)
		header = ""
		fmt.Fprintf(&b, "%-12s %8d %8d %8d %8d %8d\n", stage, m.Count,
			m.Quantile(500), m.Quantile(900), m.Quantile(990), m.Quantile(999))
	}
	return b.String()
}

// eventsTable renders a flight-recorder dump, oldest first. Event
// timestamps are the daemon's wall clock in microseconds; EPOCH ties
// each event to the rebalance decision it belongs to ("-" for events
// outside any epoch).
func eventsTable(evs []flight.Event) string {
	var b strings.Builder
	if len(evs) == 0 {
		b.WriteString("flight recorder empty\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%8s %-15s %-13s %-20s %10s %10s %7s\n", "SEQ", "TIME", "KIND", "APP", "A", "B", "EPOCH")
	for _, ev := range evs {
		ts := time.UnixMicro(ev.At).Format("15:04:05.000000")
		app := ev.App
		if app == "" {
			app = "-"
		}
		ep := "-"
		if ev.Epoch != 0 {
			ep = strconv.FormatUint(ev.Epoch, 10)
		}
		fmt.Fprintf(&b, "%8d %-15s %-13s %-20s %10d %10d %7s\n", ev.Seq, ts, ev.Kind, app, ev.A, ev.B, ep)
	}
	return b.String()
}

// convergeTable renders the daemon's convergence report: per closed
// epoch, how many members the decision re-targeted, how it closed, how
// long it took, and which member closed it — plus, from the metrics
// snapshot, the settled-epoch latency quantiles and the count of epochs
// still waiting.
func convergeTable(epochs []coordinator.ConvergeInfo, snap *metrics.Snapshot) string {
	var b strings.Builder
	settled := series(snap, metrics.Name("coordinator_convergence_latency_micros", "outcome", coordinator.ConvergeSettled))
	fmt.Fprintf(&b, "open epochs %d, settled %d (p50 %dµs p99 %dµs p999 %dµs)\n",
		series(snap, "coordinator_convergence_open_epochs").Value, settled.Count,
		settled.Quantile(500), settled.Quantile(990), settled.Quantile(999))
	if len(epochs) == 0 {
		b.WriteString("no closed epochs retained\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%8s %8s %-11s %12s %-20s %-8s\n", "EPOCH", "MEMBERS", "OUTCOME", "SETTLED(µS)", "STRAGGLER", "KIND")
	for _, e := range epochs {
		straggler := e.Straggler
		if straggler == "" {
			straggler = "-"
		}
		fmt.Fprintf(&b, "%8d %8d %-11s %12d %-20s %-8s\n",
			e.Epoch, e.Members, e.Outcome, e.LatencyMicros, straggler, e.StragglerKind)
	}
	return b.String()
}
