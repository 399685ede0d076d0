package hash

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMixIsDeterministic(t *testing.T) {
	if Mix(12345) != Mix(12345) {
		t.Fatal("Mix not deterministic")
	}
}

// Mix must be a bijection on uint32 (it is composed of invertible
// steps); spot-check injectivity over a dense range.
func TestMixInjectiveOnRange(t *testing.T) {
	seen := make(map[uint32]uint32, 1<<16)
	for k := uint32(0); k < 1<<16; k++ {
		h := Mix(k)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Mix(%d) == Mix(%d) == %d", k, prev, h)
		}
		seen[h] = k
	}
}

// unmix inverts Mix step by step, last step first: x ^= x >> s undoes
// itself for s >= 16, and needs x ^= x>>13 ^ x>>26 for s = 13; each odd
// multiplier is undone by its inverse modulo 2^32 (inverses).
func unmix(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x7ed1b41d
	h ^= h>>13 ^ h>>26
	h *= 0xa5cb9243
	h ^= h >> 16
	return h
}

// inverses pairs Mix's multipliers with the ones unmix undoes them by.
var inverses = [][2]uint32{{0xc2b2ae35, 0x7ed1b41d}, {0x85ebca6b, 0xa5cb9243}}

// TestMixIsBijection pins what hash-domain join inputs rely on: BUNs and
// join images carry Mix(key) in place of the key and the probes compare
// hashes, which is the key comparison only because Mix has an inverse.
// unmix must undo Mix over a dense sweep, a strided sweep of the whole
// domain, random values and the int32 edges.
func TestMixIsBijection(t *testing.T) {
	check := func(x uint32) {
		if got := unmix(Mix(x)); got != x {
			t.Fatalf("unmix(Mix(%#x)) = %#x", x, got)
		}
	}
	for _, p := range inverses {
		if p[0]*p[1] != 1 {
			t.Fatalf("%#x is not the inverse of %#x modulo 2^32", p[1], p[0])
		}
	}
	for x := uint32(0); x < 1<<20; x++ {
		check(x)
		check(-x)
	}
	for x := uint64(0); x < 1<<32; x += 4099 {
		check(uint32(x))
	}
	rng := rand.New(rand.NewPCG(7, 31))
	for range 1 << 16 {
		check(rng.Uint32())
	}
	for _, v := range []int32{0, 1, -1, math.MinInt32, math.MaxInt32, math.MinInt32 + 1, math.MaxInt32 - 1} {
		check(uint32(v))
		if unmix(Int32(v)) != uint32(v) {
			t.Fatalf("unmix(Int32(%d)) does not return the key", v)
		}
	}
}

// The low B bits of Mix over a *skewed* domain (consecutive integers,
// multiples of a power of two) must spread over all 2^B buckets —
// the property §2.2 hashes for.
func TestMixSpreadsSkewedDomains(t *testing.T) {
	const bits = 6
	domains := map[string]func(i int) uint32{
		"consecutive":    func(i int) uint32 { return uint32(i) },
		"multiples-1024": func(i int) uint32 { return uint32(i) * 1024 },
		"high-bits-only": func(i int) uint32 { return uint32(i) << 20 },
	}
	for name, gen := range domains {
		counts := make([]int, 1<<bits)
		n := 1 << 12
		for i := 0; i < n; i++ {
			counts[Mix(gen(i))&(1<<bits-1)]++
		}
		want := n / (1 << bits)
		for b, c := range counts {
			if c < want/2 || c > want*2 {
				t.Fatalf("%s: bucket %d has %d of ~%d", name, b, c, want)
			}
		}
	}
}

func TestMix64Injective(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return Mix64(a) != Mix64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOIDIsIdentity(t *testing.T) {
	f := func(o uint32) bool { return OID(o) == o }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt32MatchesMix(t *testing.T) {
	f := func(v int32) bool { return Int32(v) == Mix(uint32(v)) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
