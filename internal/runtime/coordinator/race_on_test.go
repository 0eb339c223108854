//go:build race

package coordinator

// raceDetector reports whether the test binary was built with -race,
// under which sync.Pool drops a quarter of what it is given, at random,
// and allocation counts of pooled paths stop being exact.
const raceDetector = true
