//go:build race

package coretest

// raceDetector reports a build under the race detector.
const raceDetector = true
