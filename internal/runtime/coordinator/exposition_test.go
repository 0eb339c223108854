package coordinator

import (
	"regexp"
	"strings"
	"testing"

	"procctl/internal/runtime/pool"
)

// TestConvergenceExposition drives real epochs through a coordinator
// and checks the convergence metric family as scraped: spec-valid
// text exposition, derived quantile gauges for the latency histogram,
// and label hygiene — outcome/kind only, never member names, so fleet
// size cannot explode series cardinality.
func TestConvergenceExposition(t *testing.T) {
	c := New(8)
	web := pool.New(pool.Config{Name: "web", Workers: 8})
	defer web.Close()
	batch := pool.New(pool.Config{Name: "batch", Workers: 8})
	defer batch.Close()
	c.RegisterWeighted(web, 1)
	c.RegisterWeighted(batch, 1)
	c.Unregister("batch") // another change set; the epoch settles in-process

	var b strings.Builder
	if err := c.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, typ := range []string{
		"# TYPE coordinator_convergence_latency_micros histogram",
		"# TYPE coordinator_convergence_stragglers_total counter",
		"# TYPE coordinator_convergence_open_epochs gauge",
	} {
		if n := strings.Count(out, typ+"\n"); n != 1 {
			t.Errorf("exposition has %d of %q, want exactly 1", n, typ)
		}
	}

	// Settled closures happened, so their series carry samples and the
	// histogram has derived quantile gauge families.
	for _, want := range []string{
		`coordinator_convergence_stragglers_total{kind="inproc"} `,
		`coordinator_convergence_latency_micros_count{outcome="settled"} `,
		`coordinator_convergence_open_epochs 0`,
		"# TYPE coordinator_convergence_latency_micros_p50 gauge",
		`coordinator_convergence_latency_micros_p50{outcome="settled"} `,
		`coordinator_convergence_latency_micros_p999{outcome="settled"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// No epoch expired, so the derived gauges skip that series — the
	// spec has no way to say "no estimate" other than omission.
	if strings.Contains(out, `coordinator_convergence_latency_micros_p50{outcome="expired"}`) {
		t.Error("exposition emitted a quantile for an empty series")
	}

	// Label hygiene: convergence series may carry outcome, kind, and le
	// only. Member names stay in converge reports and flight events.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?\d+$`)
	labelKey := regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.Contains(line, "coordinator_convergence") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("sample line not spec-valid: %q", line)
		}
		for _, m := range labelKey.FindAllStringSubmatch(line, -1) {
			switch m[1] {
			case "outcome", "kind", "le":
			default:
				t.Errorf("unexpected label %q on convergence series: %q", m[1], line)
			}
		}
		for _, member := range []string{"web", "batch"} {
			if strings.Contains(line, member) {
				t.Errorf("member name %q leaked into metric labels: %q", member, line)
			}
		}
	}
}
