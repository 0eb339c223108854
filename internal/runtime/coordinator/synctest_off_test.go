//go:build !goexperiment.synctest

package coordinator

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// Without GOEXPERIMENT=synctest there are no bubbles in this binary, so
// a virtual-time test runs in another one: the first to start builds
// this package's tests with the flag, and each runs itself there by
// name. The code a test runs outside runBubble runs in both binaries.

var synctestBin struct {
	once      sync.Once
	dir, path string
	err       error
}

// ranInBubble records the tests already run in the synctest binary: one
// that calls runBubble more than once runs there at its first call.
var ranInBubble sync.Map

func TestMain(m *testing.M) {
	code := m.Run()
	if synctestBin.dir != "" {
		os.RemoveAll(synctestBin.dir)
	}
	os.Exit(code)
}

// buildSynctest builds the package's tests, from the test's working
// directory, with GOEXPERIMENT=synctest added to the environment's.
func buildSynctest() {
	b := &synctestBin
	if b.dir, b.err = os.MkdirTemp("", "coordinator-synctest"); b.err != nil {
		return
	}
	b.path = filepath.Join(b.dir, "coordinator.test")
	args := []string{"test", "-c", "-o", b.path}
	if raceDetector {
		args = append(args, "-race")
	}
	exp := "synctest"
	if e := os.Getenv("GOEXPERIMENT"); e != "" {
		exp = e + "," + exp
	}
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT="+exp)
	if out, err := cmd.CombinedOutput(); err != nil {
		b.err = fmt.Errorf("go %s with GOEXPERIMENT=%s: %v\n%s", strings.Join(args, " "), exp, err, out)
	}
}

// runBubble runs the calling test, or subtest, in the package's tests
// built with GOEXPERIMENT=synctest, where runBubble is synctest.Run, and
// fails it if it fails there. f does not run in this binary.
func runBubble(t *testing.T, f func()) {
	t.Helper()
	if _, ran := ranInBubble.LoadOrStore(t.Name(), true); ran {
		return
	}
	synctestBin.once.Do(buildSynctest)
	if synctestBin.err != nil {
		t.Fatal(synctestBin.err)
	}
	parts := strings.Split(t.Name(), "/")
	for i, p := range parts {
		parts[i] = "^" + regexp.QuoteMeta(p) + "$"
	}
	args := []string{"-test.run", strings.Join(parts, "/"), "-test.count=1", "-test.v"}
	if testing.Short() {
		args = append(args, "-test.short")
	}
	if d, ok := t.Deadline(); ok {
		args = append(args, "-test.timeout", time.Until(d).String())
	}
	out, err := exec.Command(synctestBin.path, args...).CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("--- PASS: "+t.Name()+" (")) {
		t.Fatalf("%s on virtual time (GOEXPERIMENT=synctest): %v\n%s", t.Name(), err, out)
	}
}

// waitBubble is never called here: bubbles run only in the synctest
// binary.
func waitBubble() { panic("waitBubble outside a synctest bubble") }
