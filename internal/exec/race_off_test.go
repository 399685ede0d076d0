//go:build !race

package exec

// raceEnabled reports whether the race detector instruments this
// build; the tests it makes expensive shrink their inputs under it.
const raceEnabled = false
