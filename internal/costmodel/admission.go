package costmodel

import "radixdecluster/internal/mem"

// MemoryBound is the admission ceiling a transient-memory budget
// imposes: how many queries can hold a perQuery-sized working set of
// execution buffers (radix scatter targets, partition match lists,
// hash-table linkage — the arena-leased transients) before their sum
// exceeds the budget. It is the ceiling RuntimeConfig.MemoryBudget puts
// on the default admission bound. A non-positive budget or estimate
// imposes no bound.
func MemoryBound(budget, perQuery int64) int {
	if budget <= 0 || perQuery <= 0 {
		return int(^uint(0) >> 1)
	}
	q := int(budget / perQuery)
	if q < 1 {
		q = 1
	}
	return q
}

// PerQueryMemEstimate is the planning-grade guess at one query's peak
// transient buffer footprint: a few LLC-sized regions (clustered
// inputs, scatter targets, match lists live at once during the join
// phase). Deliberately coarse — it sizes an admission ceiling, not an
// allocation.
func PerQueryMemEstimate(h mem.Hierarchy) int64 {
	return 4 * int64(h.LLC().Size)
}
