//go:build race

package apps

// raceDetector reports whether the test binary was built with -race,
// whose runtime allocates more than a plain build does (the Fig4 mix
// reads 11.18 MB under it), so byte budgets do not hold there.
const raceDetector = true
