package ctrl

import (
	"encoding/json"
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/sim"
)

// announcement is one target decision as the trace stream carries it,
// with the virtual instant it was made at.
type announcement struct {
	At sim.Time
	kernel.Annotation
}

// announceRun replays a fixed membership scenario — two apps register,
// one crashes and expires, periodic scans throughout — and returns the
// server's target annotations and the server.
func announceRun(t *testing.T) ([]announcement, *Server) {
	t.Helper()
	k := newKernel(16, kernel.NewTimeshare())
	var out []announcement
	k.OnAnnotation = func(a kernel.Annotation) {
		if a.Layer == "ctrl" {
			out = append(out, announcement{k.Engine().Now(), a})
		}
	}
	s := NewServer(k, sim.Second)
	spin(k, 1, 16, 3600*sim.Second)
	spin(k, 2, 16, 3600*sim.Second)
	s.Register(1, 16)
	s.Register(2, 16)
	k.Engine().Every(6*sim.Second, func() bool { s.Poll(2); return true })
	k.Engine().Schedule(sim.Time(5*sim.Second), func() { k.KillApp(1) })
	k.Engine().Run(sim.Time(30 * sim.Second))
	return out, s
}

// TestTargetAnnotationsTellMembershipStory checks the trace stream tells
// the story of a membership: every target the server moved, caused by
// the scan that moved it, in non-decreasing virtual time, through the
// lease expiry of the crashed app.
func TestTargetAnnotationsTellMembershipStory(t *testing.T) {
	anns, s := announceRun(t)
	if s.LeaseExpiries != 1 {
		t.Errorf("%d lease expiries, want 1", s.LeaseExpiries)
	}
	// Two registrations force scans, plus ~30 periodic ones.
	if s.Scans < 30 {
		t.Errorf("%d scans over 30s at 1s interval, want >= 30", s.Scans)
	}
	var app2Targets []int
	for i, a := range anns {
		if a.Kind != "target" || a.Task != -1 || a.Cause < 0 || a.Cause > s.Scans {
			t.Fatalf("annotation %+v is not a target decision caused by a scan", a)
		}
		if i > 0 && (a.At < anns[i-1].At || a.Cause < anns[i-1].Cause) {
			t.Fatalf("annotations regressed: %+v then %+v", anns[i-1], a)
		}
		if a.App == 2 {
			app2Targets = append(app2Targets, a.Target)
		}
	}
	// Registration (16), equipartition (8), then expiry hands app 2
	// everything back: at least three target moves for app 2.
	if len(app2Targets) < 3 {
		t.Fatalf("app2 target history %v, want register/share/reclaim transitions", app2Targets)
	}
	if first := app2Targets[0]; first != 16 {
		t.Errorf("app2 first target %d, want its full 16", first)
	}
	if last := app2Targets[len(app2Targets)-1]; last != 16 {
		t.Errorf("app2 final target %d, want 16 after the survivor reclaims", last)
	}
}

// TestTargetAnnotationsDeterministic runs the same scenario twice and
// requires byte-identical annotation streams: the server's decisions are
// a pure function of the simulation, like every other sim output.
func TestTargetAnnotationsDeterministic(t *testing.T) {
	first, _ := announceRun(t)
	second, _ := announceRun(t)
	a, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("same-seed target annotations differ:\n%s\n%s", a, b)
	}
}
