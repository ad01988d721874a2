//go:build !race

package deepvalidation

const raceDetectorEnabled = false
