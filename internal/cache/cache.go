// Package cache implements a set-associative, write-back, write-allocate
// cache model with true-LRU replacement. It models state only (hit/miss and
// writeback traffic); timing is composed by internal/memsys using the
// Table III latencies.
package cache

import "fmt"

// Policy selects the replacement policy.
type Policy int

const (
	// LRU is exact least-recently-used (the host processor model).
	LRU Policy = iota
	// Random is deterministic pseudo-random victim selection, as embedded
	// parts of the PPC440 era used (round-robin/pseudo-random). Unlike
	// exact LRU it degrades gradually when a looping working set exceeds
	// capacity, which is the behaviour behind the paper's Fig. 5/6 cache
	// knees.
	Random
)

// Config describes a cache's geometry.
type Config struct {
	Size     int // total bytes
	Assoc    int // ways
	LineSize int // bytes
	Policy   Policy
}

// Cache is a single level of set-associative cache.
//
// The ways are stored flat and set-major: way w of set s lives at index
// s*assoc+w of tags, lru and dirty. A tag is stored plus one, so 0 marks an
// invalid way and a lookup is one scan with no valid bit to test. Lines
// are only ever invalidated together (Flush), and a miss fills the first
// invalid way, so a set's valid ways are always a prefix and fill[s] is
// its first invalid way. The arrays are allocated on the first Access, so
// a hierarchy that is built but never used costs no line state.
type Cache struct {
	cfg     Config
	numSets int
	tags    []uint64 // line tag+1 per way; 0 = invalid
	lru     []uint64 // last-use tick per way
	dirty   []bool   // per way
	fill    []int32  // valid ways per set
	ticks   uint64
	rng     uint64 // xorshift state for Random replacement (deterministic)

	// Stats.
	accesses   uint64
	hits       uint64
	writebacks uint64
}

// New returns an empty cache. It panics on a geometry that does not divide
// evenly or a line size that is not a power of two (Touch and memsys round
// addresses down to a line with a mask), since that is a configuration bug.
func New(cfg Config) *Cache {
	if cfg.LineSize <= 0 || cfg.Assoc <= 0 || cfg.Size <= 0 {
		panic(fmt.Sprintf("cache: bad config %+v", cfg))
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d is not a power of two", cfg.LineSize))
	}
	lines := cfg.Size / cfg.LineSize
	if lines%cfg.Assoc != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by assoc %d", lines, cfg.Assoc))
	}
	return &Cache{
		cfg:     cfg,
		numSets: lines / cfg.Assoc,
		rng:     0x9e3779b97f4a7c15,
	}
}

// nextRand is a deterministic xorshift64 step.
func (c *Cache) nextRand() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

// Result describes the outcome of one access.
type Result struct {
	Hit bool
	// Writeback is set when a dirty victim was evicted; Victim is the
	// address of its first byte.
	Writeback bool
	Victim    uint64
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr / uint64(c.cfg.LineSize)
	return int(lineAddr % uint64(c.numSets)), lineAddr / uint64(c.numSets)
}

// Access looks up addr, allocating on miss, and returns what happened.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.accesses++
	c.ticks++
	setIdx, tag := c.index(addr)
	stored := tag + 1
	// Before the first miss there are no ways to scan.
	if base, end := setIdx*c.cfg.Assoc, (setIdx+1)*c.cfg.Assoc; end <= len(c.tags) {
		for i, t := range c.tags[base:end] {
			if t == stored {
				c.hits++
				c.lru[base+i] = c.ticks
				if write {
					c.dirty[base+i] = true
				}
				return Result{Hit: true}
			}
		}
	}
	return c.miss(setIdx, stored, write)
}

// miss stores stored (a tag+1) in the first invalid way of set setIdx,
// else in the policy's victim. It is kept out of Access so the hit path
// carries no allocation call and no eviction state.
func (c *Cache) miss(setIdx int, stored uint64, write bool) Result {
	if c.tags == nil {
		n := c.numSets * c.cfg.Assoc
		c.tags = make([]uint64, n)
		c.lru = make([]uint64, n)
		c.dirty = make([]bool, n)
		c.fill = make([]int32, c.numSets)
	}
	base := setIdx * c.cfg.Assoc
	res := Result{}
	way := int(c.fill[setIdx])
	if way < c.cfg.Assoc {
		c.fill[setIdx]++
	} else {
		if c.cfg.Policy == Random {
			way = int(c.nextRand() % uint64(c.cfg.Assoc))
		} else {
			lru := c.lru[base : base+c.cfg.Assoc]
			way = 0
			for i, t := range lru {
				if t < lru[way] {
					way = i
				}
			}
		}
		if c.dirty[base+way] {
			res.Writeback = true
			res.Victim = c.victimAddr(setIdx, c.tags[base+way]-1)
			c.writebacks++
		}
	}
	c.tags[base+way] = stored
	c.lru[base+way] = c.ticks
	c.dirty[base+way] = write
	return res
}

// Probe reports whether addr is present without touching LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	if c.tags == nil {
		return false
	}
	setIdx, tag := c.index(addr)
	base := setIdx * c.cfg.Assoc
	for _, t := range c.tags[base : base+c.cfg.Assoc] {
		if t == tag+1 {
			return true
		}
	}
	return false
}

// victimAddr reconstructs a line's base address from its set and tag.
func (c *Cache) victimAddr(set int, tag uint64) uint64 {
	return (tag*uint64(c.numSets) + uint64(set)) * uint64(c.cfg.LineSize)
}

// Touch loads every line of [addr, addr+size), as the firmware does when it
// builds a queue entry; it is Access in a loop, provided for convenience.
func (c *Cache) Touch(addr uint64, size int, write bool) (misses int) {
	ls := uint64(c.cfg.LineSize)
	for a := addr &^ (ls - 1); a < addr+uint64(size); a += ls {
		if r := c.Access(a, write); !r.Hit {
			misses++
		}
	}
	return misses
}

// Flush invalidates everything (statistics are preserved).
func (c *Cache) Flush() {
	clear(c.tags)
	clear(c.fill)
}

// LineSize returns the configured line size in bytes.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

// Accesses reports the total number of lookups.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Hits reports the number of lookups that hit.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses reports the number of lookups that missed.
func (c *Cache) Misses() uint64 { return c.accesses - c.hits }

// Writebacks reports how many dirty victims were evicted.
func (c *Cache) Writebacks() uint64 { return c.writebacks }

// HitRate returns hits/accesses (1.0 when there were no accesses).
func (c *Cache) HitRate() float64 {
	if c.accesses == 0 {
		return 1
	}
	return float64(c.hits) / float64(c.accesses)
}
