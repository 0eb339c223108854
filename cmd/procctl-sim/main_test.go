package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// TestAllGolden holds the published render: `procctl-sim all` at its
// default flags prints testdata/all.golden byte for byte. EXPERIMENTS.md
// and README.md quote their tables from that file, and
// TestDocsQuoteGolden holds the quotes to it.
func TestAllGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if code := run([]string{"all"}, &got, io.Discard); code != 0 {
		t.Fatalf("procctl-sim all exited %d", code)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl)-1 && i < len(wl)-1 && gl[i] == wl[i] {
		i++
	}
	t.Fatalf("procctl-sim all differs from testdata/all.golden at line %d:\n  got  %q\n  want %q\n"+
		"If the change is intended, regenerate the golden with\n"+
		"  go run ./cmd/procctl-sim all > cmd/procctl-sim/testdata/all.golden\n"+
		"and requote the blocks of EXPERIMENTS.md and README.md that TestDocsQuoteGolden names.",
		i+1, gl[i], wl[i])
}

// quotingSections are the EXPERIMENTS.md sections that publish a
// procctl-sim render; each must quote at least one block of it.
var quotingSections = []string{
	"Figure 1", "Figure 3", "Figure 4", "Figure 5", "TAB-POL", "ABL-POLL",
	"ABL-CACHE", "ABL-QUANTUM", "ABL-UNCTL", "ABL-DECENTRAL", "ABL-LATENCY", "FAULTS",
}

// TestDocsQuoteGolden holds every published figure number to the
// render: each fenced block with the info string procctl-sim in
// EXPERIMENTS.md or README.md must be whole consecutive lines of
// testdata/all.golden, and every section in quotingSections, and
// README.md, must have one.
func TestDocsQuoteGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	render := "\n" + string(golden)
	for _, doc := range []string{"EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		quoted := map[string]bool{}
		// Each "## " heading opens a section; the text before the first
		// one is the preamble.
		for _, sec := range strings.Split("\n"+string(text), "\n## ") {
			heading, _, _ := strings.Cut(sec, "\n")
			for _, block := range procctlSimBlocks(sec) {
				if block != "" {
					quoted[heading] = true
				}
				if strings.Contains(render, "\n"+block) {
					continue
				}
				why := "its lines are all there, but not consecutively"
				for _, l := range strings.SplitAfter(block, "\n") {
					if l != "" && !strings.Contains(render, "\n"+l) {
						why = fmt.Sprintf("this line is not:\n  %q", strings.TrimSuffix(l, "\n"))
						break
					}
				}
				t.Errorf("%s, %q: a procctl-sim block is not in testdata/all.golden verbatim; %s", doc, heading, why)
			}
		}
		switch doc {
		case "README.md":
			if len(quoted) == 0 {
				t.Errorf("README.md quotes no procctl-sim block")
			}
		case "EXPERIMENTS.md":
			for _, name := range quotingSections {
				found := false
				for heading := range quoted {
					found = found || strings.HasPrefix(heading, name+" ")
				}
				if !found {
					t.Errorf("EXPERIMENTS.md's %s section quotes no procctl-sim block", name)
				}
			}
		}
	}
}

// procctlSimBlocks returns the body of each fenced block in text whose
// info string is procctl-sim, each line ending in a newline.
func procctlSimBlocks(text string) []string {
	var blocks []string
	var cur strings.Builder
	in := false
	for _, l := range strings.Split(text, "\n") {
		switch {
		case !in && l == "```procctl-sim":
			in = true
			cur.Reset()
		case in && l == "```":
			in = false
			blocks = append(blocks, cur.String())
		case in:
			cur.WriteString(l + "\n")
		}
	}
	return blocks
}
