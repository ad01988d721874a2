//go:build !race

package gateway

// See race_enabled_test.go.
const raceDetectorEnabled = false
