package analysis

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestWriteSARIF(t *testing.T) {
	f1 := Finding{Analyzer: "lockorder", Message: "cycle A→B→A"}
	f1.Pos.Filename, f1.Pos.Line, f1.Pos.Column = "/mod/internal/runtime/x.go", 10, 3
	f2 := Finding{Analyzer: "pragma", Message: "needs a justification"}
	f2.Pos.Filename, f2.Pos.Line = "/elsewhere/y.go", 2 // outside the module: kept absolute

	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "/mod", All(), []Finding{f1, f2}); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "procctl-vet" {
		t.Errorf("driver = %q", run.Tool.Driver.Name)
	}
	// One rule per analyzer plus the pragma pseudo-rule.
	if want := len(All()) + 1; len(run.Tool.Driver.Rules) != want {
		t.Errorf("got %d rules, want %d", len(run.Tool.Driver.Rules), want)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, name := range []string{"lockorder", "blockinglocked", "nondeterminism", "pragma"} {
		if !ruleIDs[name] {
			t.Errorf("missing rule %q", name)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	loc := run.Results[0].Locations[0].PhysicalLocation
	if got := loc.ArtifactLocation.URI; got != "internal/runtime/x.go" {
		t.Errorf("in-module URI = %q, want module-relative", got)
	}
	if loc.Region.StartLine != 10 {
		t.Errorf("startLine = %d, want 10", loc.Region.StartLine)
	}
	if got := run.Results[1].Locations[0].PhysicalLocation.ArtifactLocation.URI; !strings.Contains(got, "y.go") {
		t.Errorf("out-of-module URI = %q", got)
	}
}
