// Package hash provides the integer hash functions used to derive
// radix bits from join attributes.
//
// Radix-Cluster partitions a relation on the lower B bits of the
// *hash* of the join attribute. Hashing serves two purposes (paper
// §2.2): it turns arbitrary values into integer bits, and it combats
// skew by letting all bits of the attribute influence the lower B
// bits used for clustering. The single exception is the oid type:
// oids stem from dense domains [0,N), are integers already and are
// not skewed, so Radix-Cluster uses them verbatim — which is what
// makes a full-width Radix-Cluster on oids a Radix-Sort.
package hash

// Mix is a 32-bit finaliser-style bit mixer (the murmur3 fmix32
// constants). Every input bit influences every output bit, so the low
// B bits of Mix(k) are usable as radix bits even for skewed or
// clustered key domains.
//
// Mix is a bijection on uint32: each step (x ^= x >> s, x *= odd) is
// invertible. Hash-domain join inputs depend on it — BUNs and join
// images carry Mix(key) in place of the key from the first clustering
// pass to the probe, which compares hashes: equal hashes are equal keys.
// TestMixIsBijection pins it with an explicit inverse.
func Mix(k uint32) uint32 {
	k ^= k >> 16
	k *= 0x85ebca6b
	k ^= k >> 13
	k *= 0xc2b2ae35
	k ^= k >> 16
	return k
}

// Mix64 mixes a 64-bit value (splitmix64 finaliser).
func Mix64(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// Int32 hashes a signed 32-bit column value.
func Int32(v int32) uint32 { return Mix(uint32(v)) }

// OID is the identity: oids are dense, unskewed integers, and
// clustering them on their own bits is what turns Radix-Cluster into
// Radix-Sort (paper §3.1).
func OID(o uint32) uint32 { return o }
