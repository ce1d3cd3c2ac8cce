//go:build race

package harness

// raceDetector is true in a test binary built with -race.
const raceDetector = true
