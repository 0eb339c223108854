package coordinator

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"procctl/internal/journal"
)

// TestDaemonSeriesGolden pins the names of the series a daemon's registry
// exposes — the coordinator's, the socket server's, the journal's and the
// batching counters — after one register, poll, rebalance and ack. A
// series added or removed shows up as a one-line diff of
// testdata/daemon_series.golden; edit it only for an intended change.
func TestDaemonSeriesGolden(t *testing.T) {
	srv, sock := startServer(t, 8)
	coord := srv.coord
	jw, err := journal.Open(t.TempDir(), 1, journal.Options{
		Metrics:   coord.Metrics(),
		NowMicros: func() int64 { return time.Now().UnixMicro() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	coord.SetJournal(jw)
	stop := coord.StartBatching(time.Millisecond)
	defer stop()

	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RegisterWeighted("web", 4, 0); err != nil {
		t.Fatal(err)
	}
	coord.Rebalance()
	waitFor(t, 2*time.Second, func() bool { return coord.Rebalances() > 0 }, "no rebalance flushed")
	_, epoch, err := c.PollEpoch("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.PollEpoch("web", epoch); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	for _, m := range coord.Snapshot().Metrics {
		b.WriteString(m.Name)
		b.WriteByte('\n')
	}
	got := b.String()
	path := filepath.Join("testdata", "daemon_series.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("daemon series differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
