// Package trace replays the memory access pattern of Radix-Decluster
// against the cache simulator, standing in for the hardware-counter
// instrumentation of §4.1.
//
// The replayer mirrors the algorithm's loop structure exactly —
// including the data-dependent control flow (cluster cursors advance
// according to the actual oid values) — but touches simulated regions
// instead of real arrays. Its per-level miss counts are the "measured
// events" series of Figure 7a (internal/experiments).
package trace

import (
	"radixdecluster/internal/bat"
	"radixdecluster/internal/cachesim"
)

// OID mirrors bat.OID.
type OID = bat.OID

const (
	oidBytes = 4
	valBytes = 4
	// borderBytes is the {int start, end} cluster entry of Figure 6.
	borderBytes = 16
)

// Decluster replays Figure 6 (the Radix-Decluster memory access
// pattern of Figure 5): sequential multi-cursor reads of CLUST_VALUES
// and CLUST_RESULT, repeated sequential scans of the cluster
// start/end array, and random writes confined to the insertion
// window. ids/borders carry the real data so cursor advancement
// matches the algorithm run for run.
func Decluster(s *cachesim.Sim, ids []OID, borders []bat.Border, windowTuples int) error {
	n := len(ids)
	values := s.Alloc("CLUST_VALUES", n*valBytes)
	idsR := s.Alloc("CLUST_RESULT", n*oidBytes)
	result := s.Alloc("result", n*valBytes)
	cl := s.Alloc("CLUST_BORDERS", len(borders)*borderBytes)

	type cursor struct{ start, end int }
	clusters := make([]cursor, 0, len(borders))
	for _, b := range borders {
		if b.Size() > 0 {
			clusters = append(clusters, cursor{b.Start, b.End})
		}
	}
	nclusters := len(clusters)
	for windowLimit := uint64(windowTuples); nclusters > 0; windowLimit += uint64(windowTuples) {
		for i := 0; i < nclusters; i++ {
			s.Load(cl, i*borderBytes, borderBytes) // cluster[i].start/.end
			for clusters[i].start < clusters[i].end {
				cur := clusters[i].start
				s.Load(idsR, cur*oidBytes, oidBytes) // IDs[cluster[i].start]
				id := ids[cur]
				if uint64(id) >= windowLimit {
					break
				}
				s.Load(values, cur*valBytes, valBytes)      // values[...]
				s.Store(result, int(id)*valBytes, valBytes) // result_column[IDs[...]]
				clusters[i].start++
			}
			if clusters[i].start >= clusters[i].end {
				nclusters--
				clusters[i] = clusters[nclusters]
				i--
			}
		}
	}
	return nil
}
