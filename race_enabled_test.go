//go:build race

package deepvalidation

// raceDetectorEnabled reports whether this test binary was built with
// -race. The race detector's shadow-memory instrumentation adds heap
// allocations of its own, so allocation budgets are meaningless under
// it; the allocation-budget tests skip themselves.
const raceDetectorEnabled = true
