//go:build !race

package alloctest

// raceDetector reports a build under the race detector.
const raceDetector = false
