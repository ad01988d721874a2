//go:build !race

package serve

// See race_enabled_test.go.
const raceDetectorEnabled = false
