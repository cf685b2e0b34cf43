package cache

import (
	"fmt"
	"testing"
)

// The dispatch-cache geometry the NIC fabric uses (nic/fabric.go): 64
// lines, 4-way, LRU. The hit path is the common case for Zipf-skewed
// tenancy traffic; the miss path is the streaming worst case.

func dispatchGeometry() Config {
	return Config{Size: 512, LineSize: 8, Assoc: 4, Policy: LRU}
}

func BenchmarkCacheDispatchHit(b *testing.B) {
	c := New(dispatchGeometry())
	c.Access(0x900_0000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x900_0000, false)
	}
	// Every timed access must hit; only the one warm-up access may miss.
	if c.Hits() != uint64(b.N) {
		b.Fatalf("hit benchmark missed: %d hits over %d timed accesses", c.Hits(), b.N)
	}
}

func BenchmarkCacheDispatchMiss(b *testing.B) {
	c := New(dispatchGeometry())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A stride of one line per set sweep: every access conflicts out a
		// resident line, so the cache never hits.
		c.Access(0x900_0000+uint64(i)*8*64, false)
	}
	if c.Hits() != 0 {
		b.Fatalf("miss benchmark hit %d times", c.Hits())
	}
}

// BenchmarkCacheNICWalk walks a posted-receive list of n 128-byte queue
// entries (four 32-byte lines each) through the NIC L1 (32 K, 64-way,
// Random), as the baseline firmware's list search does. At n=100 the list
// fits and every timed access hits; at n=1000 it is four times the cache
// and nearly every access misses and evicts. ns/access is the host cost of
// one simulated line reference.
func BenchmarkCacheNICWalk(b *testing.B) {
	const entryBytes, lineBytes = 128, 32
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			c := New(Config{Size: 32 << 10, Assoc: 64, LineSize: lineBytes, Policy: Random})
			walk := func() {
				for a := uint64(0); a < uint64(n*entryBytes); a += lineBytes {
					c.Access(0x100_0000+a, false)
				}
			}
			walk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walk()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*entryBytes/lineBytes), "ns/access")
		})
	}
}

// BenchmarkCacheNew builds the host L2 (512 K, 8-way, 64-byte lines) that
// every host hierarchy carries and makes its first access, which is what
// allocates the line state.
func BenchmarkCacheNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := New(Config{Size: 512 << 10, Assoc: 8, LineSize: 64})
		c.Access(0x40, false)
	}
}
