package coordinator

import (
	"reflect"
	"testing"

	"procctl/internal/metrics"
)

// Each wire op has one Client call: run every call once against a served
// daemon, and each moves its own op's coordinator_rpcs_total series by
// exactly one and no other op's. A second form of an op that comes back
// shows here as an op no call counts, or one counted twice.
func TestEachClientCallIsOneOp(t *testing.T) {
	runBubble(t, func() {
		srv := startPipeServer(8, DefaultLease)
		defer srv.Close()
		c := pipeClient(srv)
		defer c.Close()

		reg := srv.coord.Metrics()
		ops := append(wireOps[:], "unknown")
		counts := func() map[string]int64 {
			m := make(map[string]int64, len(ops))
			for _, op := range ops {
				m[op], _ = reg.Value(metrics.Name("coordinator_rpcs_total", "op", op))
			}
			return m
		}

		var epoch uint64
		calls := []struct {
			op   string
			call func() error
		}{
			{OpRegister, func() error {
				_, err := c.RegisterWeighted("a", 4, 0)
				return err
			}},
			{OpPoll, func() (err error) {
				_, epoch, err = c.PollEpoch("a", 0)
				return err
			}},
			{OpSetLoad, func() error { return c.SetExternalLoad(2) }},
			{OpStatus, func() error {
				_, err := c.Status()
				return err
			}},
			{OpMetrics, func() error {
				_, err := c.Metrics()
				return err
			}},
			{OpEvents, func() error {
				// The ring holds register, rebalance (epoch 1), target
				// (epoch 1), setload, rebalance (epoch 2): since drops
				// the first epoch-1 event, epoch the last two events.
				ring := srv.coord.rec.Snapshot(0)
				if len(ring) != 5 || epoch != 1 {
					t.Fatalf("ring of %d events at epoch %d, want 5 at epoch 1: %+v", len(ring), epoch, ring)
				}
				got, err := c.Events(0, ring[2].Seq, epoch)
				if want := ring[2:3]; err == nil && !reflect.DeepEqual(got, want) {
					t.Errorf("events since %d of epoch %d = %+v, want %+v", ring[2].Seq, epoch, got, want)
				}
				return err
			}},
			{OpConverge, func() error {
				_, err := c.Converge(0)
				return err
			}},
			{OpUnregister, func() error { return c.Unregister("a") }},
		}
		if len(calls) != len(wireOps) {
			t.Fatalf("%d calls for %d wire ops", len(calls), len(wireOps))
		}
		for _, tc := range calls {
			before := counts()
			if err := tc.call(); err != nil {
				t.Fatalf("%s: %v", tc.op, err)
			}
			after := counts()
			for _, op := range ops {
				want := int64(0)
				if op == tc.op {
					want = 1
				}
				if d := after[op] - before[op]; d != want {
					t.Errorf("the %s call moved coordinator_rpcs_total{op=%q} by %d, want %d", tc.op, op, d, want)
				}
			}
		}
	})
}
