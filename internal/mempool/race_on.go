//go:build race

package mempool

// raceBuild keeps transients on the Go heap, where the race detector
// sees them — it skips every address outside the heap's arenas — and
// poisons every ledgered buffer handed back, so a phase that reads an
// intermediate after returning it reads the pattern.
const raceBuild = true
