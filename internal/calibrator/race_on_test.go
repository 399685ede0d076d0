//go:build race

package calibrator

// raceEnabled reports whether the race detector instruments this
// build; it slows the cache simulator about fivefold, so wall-clock
// bounds on simulated work widen under it.
const raceEnabled = true
