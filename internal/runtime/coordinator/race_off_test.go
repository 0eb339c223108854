//go:build !race

package coordinator

const raceDetector = false
