package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is the array-of-structs cache the flat layout replaced, kept
// as a differential oracle: every way is a struct with its own valid bit,
// a miss takes the first invalid way found by a second scan, and the LRU
// victim is the strict-< minimum of the per-way ticks.
type refCache struct {
	cfg        Config
	sets       [][]refLine
	numSets    int
	ticks      uint64
	rng        uint64
	accesses   uint64
	hits       uint64
	writebacks uint64
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

func newRef(cfg Config) *refCache {
	lines := cfg.Size / cfg.LineSize
	numSets := lines / cfg.Assoc
	sets := make([][]refLine, numSets)
	backing := make([]refLine, lines)
	for i := range sets {
		sets[i], backing = backing[:cfg.Assoc], backing[cfg.Assoc:]
	}
	return &refCache{cfg: cfg, sets: sets, numSets: numSets, rng: 0x9e3779b97f4a7c15}
}

func (c *refCache) nextRand() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

func (c *refCache) index(addr uint64) (int, uint64) {
	lineAddr := addr / uint64(c.cfg.LineSize)
	return int(lineAddr % uint64(c.numSets)), lineAddr / uint64(c.numSets)
}

func (c *refCache) Access(addr uint64, write bool) Result {
	c.accesses++
	c.ticks++
	setIdx, tag := c.index(addr)
	set := c.sets[setIdx]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.hits++
			set[i].lru = c.ticks
			if write {
				set[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		if c.cfg.Policy == Random {
			victim = int(c.nextRand() % uint64(len(set)))
		} else {
			victim = 0
			for i := range set {
				if set[i].lru < set[victim].lru {
					victim = i
				}
			}
		}
	}
	res := Result{}
	if set[victim].valid && set[victim].dirty {
		res.Writeback = true
		res.Victim = (set[victim].tag*uint64(c.numSets) + uint64(setIdx)) * uint64(c.cfg.LineSize)
		c.writebacks++
	}
	set[victim] = refLine{tag: tag, valid: true, dirty: write, lru: c.ticks}
	return res
}

func (c *refCache) Probe(addr uint64) bool {
	setIdx, tag := c.index(addr)
	for _, l := range c.sets[setIdx] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Flush() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = refLine{}
		}
	}
}

// oracleGeometries are the four geometries the simulator builds: the NIC
// L1, the fabric dispatch cache, and the host L1 and L2.
var oracleGeometries = []struct {
	name string
	cfg  Config
}{
	{"nic-l1", Config{Size: 32 << 10, Assoc: 64, LineSize: 32, Policy: Random}},
	{"dispatch", Config{Size: 512, Assoc: 4, LineSize: 8, Policy: LRU}},
	{"host-l1", Config{Size: 64 << 10, Assoc: 2, LineSize: 64, Policy: LRU}},
	{"host-l2", Config{Size: 512 << 10, Assoc: 8, LineSize: 64, Policy: LRU}},
}

// TestFlatMatchesReference drives the flat cache and the array-of-structs
// reference with the same seeded read/write streams and requires every
// Result (hit, writeback, victim address), the final statistics and the
// residency of every touched line to agree. Address ranges span a quarter
// of capacity (all hits after warm-up) to four times capacity (steady
// eviction, where Random victims and dirty writebacks decide the output),
// with a Flush in the middle of each stream.
func TestFlatMatchesReference(t *testing.T) {
	for _, g := range oracleGeometries {
		for _, span := range []int{g.cfg.Size / 4, g.cfg.Size * 4} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/span=%d/seed=%d", g.name, span, seed), func(t *testing.T) {
					checkAgainstReference(t, g.cfg, span, seed)
				})
			}
		}
	}
}

func checkAgainstReference(t *testing.T, cfg Config, span int, seed int64) {
	t.Helper()
	flat, ref := New(cfg), newRef(cfg)
	rng := rand.New(rand.NewSource(seed))
	const ops = 20000
	touched := make(map[uint64]bool)
	for i := 0; i < ops; i++ {
		if i == ops/2 {
			flat.Flush()
			ref.Flush()
		}
		addr := uint64(rng.Intn(span))
		write := rng.Intn(3) == 0
		touched[addr] = true
		got, want := flat.Access(addr, write), ref.Access(addr, write)
		if got != want {
			t.Fatalf("op %d: Access(%#x, %v) = %+v, reference %+v", i, addr, write, got, want)
		}
	}
	if flat.Accesses() != ref.accesses || flat.Hits() != ref.hits || flat.Writebacks() != ref.writebacks {
		t.Fatalf("stats: accesses/hits/writebacks = %d/%d/%d, reference %d/%d/%d",
			flat.Accesses(), flat.Hits(), flat.Writebacks(), ref.accesses, ref.hits, ref.writebacks)
	}
	for addr := range touched {
		if got, want := flat.Probe(addr), ref.Probe(addr); got != want {
			t.Fatalf("Probe(%#x) = %v, reference %v", addr, got, want)
		}
	}
}

// TestNeverAccessedCache covers a cache that is built but never used, as
// every host hierarchy is: nothing is resident, the hit rate is 1, and
// Flush and the stats work before any line state exists.
func TestNeverAccessedCache(t *testing.T) {
	for _, g := range oracleGeometries {
		c := New(g.cfg)
		c.Flush()
		if c.Probe(0) || c.Probe(0x1234_5678) {
			t.Errorf("%s: Probe hit on a never-accessed cache", g.name)
		}
		if c.HitRate() != 1 || c.Accesses() != 0 || c.Misses() != 0 || c.Writebacks() != 0 {
			t.Errorf("%s: stats on a never-accessed cache: rate %v, %d accesses, %d misses, %d writebacks",
				g.name, c.HitRate(), c.Accesses(), c.Misses(), c.Writebacks())
		}
		if r := c.Access(0x40, true); r.Hit || r.Writeback {
			t.Errorf("%s: first access = %+v, want a clean miss", g.name, r)
		}
	}
}
