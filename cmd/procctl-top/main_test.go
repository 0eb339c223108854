package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"procctl/internal/flight"
	"procctl/internal/metrics"
	"procctl/internal/runtime/coordinator"
)

func TestDaemonGone(t *testing.T) {
	gone := []error{
		io.EOF,
		io.ErrUnexpectedEOF,
		net.ErrClosed,
		syscall.ECONNREFUSED,
		syscall.ECONNRESET,
		syscall.EPIPE,
		syscall.ENOENT, // unix socket file removed by a dead daemon
		&net.OpError{Op: "read", Err: errors.New("broken")},
		fmt.Errorf("coordinator: poll: %w", io.EOF), // wrapped, as the client returns it
	}
	for _, err := range gone {
		if !daemonGone(err) {
			t.Errorf("daemonGone(%v) = false, want true", err)
		}
	}
	answered := []error{
		errors.New("coordinator: unknown application \"x\""),
		fmt.Errorf("decoding status: %w", errors.New("bad json")),
	}
	for _, err := range answered {
		if daemonGone(err) {
			t.Errorf("daemonGone(%v) = true, want false: the daemon answered", err)
		}
	}
}

func TestRetryMessageDistinguishesDaemonDeath(t *testing.T) {
	got := retryMessage(io.EOF, 2, 4)
	if !strings.Contains(got, "daemon unreachable") || !strings.Contains(got, "reconnecting") {
		t.Errorf("daemon-death retry message %q does not say the daemon is unreachable", got)
	}
	if !strings.Contains(got, "retry 2/4") {
		t.Errorf("retry message %q missing the attempt count", got)
	}

	got = retryMessage(errors.New("coordinator: unknown application"), 1, 4)
	if !strings.Contains(got, "transient error") {
		t.Errorf("protocol-error retry message %q does not call the error transient", got)
	}
	if strings.Contains(got, "unreachable") {
		t.Errorf("protocol-error retry message %q wrongly claims the daemon is gone", got)
	}
}

func TestStatusTableShowsLease(t *testing.T) {
	spin := 37.5
	st := &coordinator.Status{
		Capacity:     8,
		ExternalLoad: 1,
		LeaseSeconds: 18,
		Apps: []coordinator.AppStatus{
			{Name: "fft", Procs: 8, Weight: 1, Target: 4, LeaseRemaining: 12.4, SpinPct: &spin},
			{Name: "local", Procs: 4, Weight: 1, Target: 3, LeaseRemaining: -1},
		},
	}
	got := statusTable(st, &metrics.Snapshot{})
	for _, want := range []string{"capacity 8", "external load 1", "lease 18s", "LEASE", "12s", "SPIN%", "38%"} {
		if !strings.Contains(got, want) {
			t.Errorf("status table missing %q:\n%s", want, got)
		}
	}
	// The in-process member reported no spin and has no lease; both
	// columns show "-" instead of fake zeros.
	for _, line := range strings.Split(got, "\n") {
		if !strings.HasPrefix(line, "local") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 6 || f[4] != "-" || f[5] != "-" {
			t.Errorf("leaseless, spin-less member row not rendered with dashes: %q", line)
		}
	}
}

func TestStatusTableShowsRebalanceLatency(t *testing.T) {
	st := &coordinator.Status{
		Capacity: 8,
		Apps:     []coordinator.AppStatus{{Name: "fft", Procs: 8, Weight: 1, Target: 8, LeaseRemaining: -1}},
	}
	snap := knownSnapshot()
	got := statusTable(st, snap)
	for _, want := range []string{"rebalance latency (µs)", "STAGE", "P999", "snapshot", "total"} {
		if !strings.Contains(got, want) {
			t.Errorf("status table missing %q:\n%s", want, got)
		}
	}
	total := snap.Get(metrics.Name("coordinator_rebalance_latency_micros", "stage", coordinator.StageTotal))
	for _, line := range strings.Split(got, "\n") {
		if !strings.HasPrefix(line, "total") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 6 || f[1] != strconv.FormatInt(total.Count, 10) || f[2] != strconv.FormatInt(total.Quantile(500), 10) ||
			f[5] != strconv.FormatInt(total.Quantile(999), 10) {
			t.Errorf("total stage row malformed: %q", line)
		}
	}
	// A daemon that has not rebalanced yet has recorded no span, and one
	// predating the spans has no such series at all.
	for _, snap := range []*metrics.Snapshot{emptySnapshot(), {}} {
		if got := statusTable(st, snap); strings.Contains(got, "rebalance latency") {
			t.Errorf("latency section shown without data:\n%s", got)
		}
	}
}

func TestEventsTable(t *testing.T) {
	evs := []flight.Event{
		{Seq: 7, At: 1_754_650_000_000_000, Kind: "register", App: "fft", A: 16},
		{Seq: 8, At: 1_754_650_000_250_000, Kind: "rebalance", A: 120, B: 2, Epoch: 4},
	}
	got := eventsTable(evs)
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("events table has %d lines, want header + 2 rows:\n%s", len(lines), got)
	}
	for _, want := range []string{"SEQ", "KIND", "EPOCH", "register", "fft", "rebalance"} {
		if !strings.Contains(got, want) {
			t.Errorf("events table missing %q:\n%s", want, got)
		}
	}
	// Span events have no app; the column shows a dash, keeping rows
	// field-aligned for awk-style consumers. Same for the epoch column
	// of events outside any epoch.
	f := strings.Fields(lines[2])
	if len(f) != 7 || f[3] != "-" || f[6] != "4" {
		t.Errorf("rebalance row malformed (want dash app, epoch 4): %q", lines[2])
	}
	if f := strings.Fields(lines[1]); len(f) != 7 || f[6] != "-" {
		t.Errorf("epoch-less row not dash-padded: %q", lines[1])
	}

	if got := eventsTable(nil); !strings.Contains(got, "empty") {
		t.Errorf("empty dump = %q", got)
	}
}

func TestStatusTableWithoutLease(t *testing.T) {
	st := &coordinator.Status{Capacity: 4, Apps: nil}
	got := statusTable(st, &metrics.Snapshot{})
	if strings.Contains(got, "lease") {
		t.Errorf("lease shown with expiry disabled:\n%s", got)
	}
	if !strings.Contains(got, "0 application(s)") {
		t.Errorf("empty table missing the application count:\n%s", got)
	}
}

func TestConvergeTable(t *testing.T) {
	got := convergeTable(knownEpochs, knownSnapshot())
	for _, want := range []string{
		"open epochs 2", "settled 120", "p50 ", "p99 ", "p999 ",
		"EPOCH", "MEMBERS", "OUTCOME", "SETTLED(µS)", "STRAGGLER",
		"settled", "superseded", "web", "remote",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("converge table missing %q:\n%s", want, got)
		}
	}
	rows := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(rows) != 4 {
		t.Fatalf("converge table has %d lines, want summary + header + 2 rows:\n%s", len(rows), got)
	}
	if f := strings.Fields(rows[2]); f[0] != "9" || f[1] != "3" || f[2] != "settled" || f[3] != "240" {
		t.Errorf("epoch row malformed: %q", rows[2])
	}

	empty := convergeTable(nil, &metrics.Snapshot{})
	if !strings.Contains(empty, "open epochs 0, settled 0") || !strings.Contains(empty, "no closed epochs") {
		t.Errorf("empty report = %q", empty)
	}
}
