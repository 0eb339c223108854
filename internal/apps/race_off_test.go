//go:build !race

package apps

const raceDetector = false
