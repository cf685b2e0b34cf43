// Package cache implements a set-associative, write-back, write-allocate
// cache model with true-LRU replacement. It models state only (hit/miss and
// writeback traffic); timing is composed by internal/memsys using the
// Table III latencies.
package cache

import (
	"fmt"
	"math/bits"
)

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
// a hierarchy that is built but never used costs no line state; a Random
// cache never reads use ticks, so it has no lru array at all.
//
// Line size, set count and way count are powers of two, so an address
// splits into line, set and tag with shifts and masks, not divisions.
type Cache struct {
	cfg       Config
	numSets   int
	lineShift uint     // log2(LineSize)
	setShift  uint     // log2(numSets)
	setMask   uint64   // numSets-1
	wayMask   uint64   // Assoc-1
	tags      []uint64 // line tag+1 per way; 0 = invalid
	lru       []uint64 // last-use tick per way (LRU policy only)
	dirty     []bool   // per way
	fill      []int32  // valid ways per set
	ticks     uint64
	rng       uint64 // xorshift state for Random replacement (deterministic)

	// Stats.
	accesses   uint64
	hits       uint64
	writebacks uint64
}

// New returns an empty cache. It panics on a geometry that does not divide
// evenly, or whose line size, set count or way count is not a power of
// two (addresses are split with shifts and masks), since that is a
// configuration bug.
func New(cfg Config) *Cache {
	if cfg.LineSize <= 0 || cfg.Assoc <= 0 || cfg.Size <= 0 {
		panic(fmt.Sprintf("cache: bad config %+v", cfg))
	}
	if !pow2(cfg.LineSize) {
		panic(fmt.Sprintf("cache: line size %d is not a power of two", cfg.LineSize))
	}
	if !pow2(cfg.Assoc) {
		panic(fmt.Sprintf("cache: assoc %d is not a power of two", cfg.Assoc))
	}
	lines := cfg.Size / cfg.LineSize
	if lines%cfg.Assoc != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by assoc %d", lines, cfg.Assoc))
	}
	numSets := lines / cfg.Assoc
	if !pow2(numSets) {
		panic(fmt.Sprintf("cache: %d sets is not a power of two", numSets))
	}
	return &Cache{
		cfg:       cfg,
		numSets:   numSets,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setShift:  uint(bits.TrailingZeros(uint(numSets))),
		setMask:   uint64(numSets - 1),
		wayMask:   uint64(cfg.Assoc - 1),
		rng:       0x9e3779b97f4a7c15,
	}
}

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

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
	lineAddr := addr >> c.lineShift
	return int(lineAddr & c.setMask), lineAddr >> c.setShift
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
				if c.lru != nil {
					c.lru[base+i] = c.ticks
				}
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
		if c.cfg.Policy == LRU {
			c.lru = make([]uint64, n)
		}
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
			way = int(c.nextRand() & c.wayMask)
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
	if c.lru != nil {
		c.lru[base+way] = c.ticks
	}
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
	return (tag<<c.setShift | uint64(set)) << c.lineShift
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
