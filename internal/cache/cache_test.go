package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{Size: 1024, Assoc: 2, LineSize: 32}) // 16 sets x 2 ways
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if r := c.Access(0x100, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x100, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(0x11f, false); !r.Hit {
		t.Fatal("same-line access missed")
	}
	if r := c.Access(0x120, false); r.Hit {
		t.Fatal("next-line access hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three lines mapping to the same set (stride = numSets*line = 512).
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // must evict b
	if !c.Probe(a) {
		t.Fatal("MRU line a was evicted")
	}
	if c.Probe(b) {
		t.Fatal("LRU line b survived")
	}
	if !c.Probe(d) {
		t.Fatal("newly filled line d missing")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := small()
	c.Access(0, true) // dirty
	c.Access(512, false)
	r := c.Access(1024, false) // evicts line 0 (dirty)
	if !r.Writeback {
		t.Fatal("dirty eviction produced no writeback")
	}
	if r.Victim != 0 {
		t.Fatalf("writeback victim = %#x, want 0", r.Victim)
	}
	if c.Writebacks() != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Writebacks())
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := small()
	c.Access(0, false)
	c.Access(512, false)
	if r := c.Access(1024, false); r.Writeback {
		t.Fatal("clean eviction produced a writeback")
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := small()
	c.Access(0, false)
	c.Access(0, true) // write hit dirties the line
	c.Access(512, false)
	if r := c.Access(1024, false); !r.Writeback {
		t.Fatal("line dirtied by write hit was evicted without writeback")
	}
}

func TestVictimAddrRoundTrip(t *testing.T) {
	c := small()
	addrs := []uint64{0x40, 0x7c0, 0x12340}
	for _, a := range addrs {
		set, tag := c.index(a)
		base := c.victimAddr(set, tag)
		wantBase := a &^ uint64(c.cfg.LineSize-1)
		if base != wantBase {
			t.Errorf("victimAddr(index(%#x)) = %#x, want %#x", a, base, wantBase)
		}
	}
}

func TestTouchSpansLines(t *testing.T) {
	c := small()
	if m := c.Touch(0x10, 64, false); m != 3 {
		// 0x10..0x4f spans lines 0x00, 0x20, 0x40.
		t.Fatalf("Touch misses = %d, want 3", m)
	}
	if m := c.Touch(0x10, 64, false); m != 0 {
		t.Fatalf("warm Touch misses = %d, want 0", m)
	}
}

func TestFlush(t *testing.T) {
	c := small()
	c.Access(0x40, false)
	c.Flush()
	if c.Probe(0x40) {
		t.Fatal("line survived Flush")
	}
	if r := c.Access(0x40, false); r.Hit {
		t.Fatal("access after Flush hit")
	}
}

func TestWorkingSetFitsThenThrashes(t *testing.T) {
	// The phenomenon behind the paper's Fig. 5/6 knees: a working set that
	// fits is all hits on re-traversal; one that exceeds capacity with an
	// LRU-hostile sequential scan is all misses.
	c := New(Config{Size: 32 << 10, Assoc: 64, LineSize: 32}) // the NIC L1
	fits := 512                                               // 512 lines * 32B = 16K < 32K
	for i := 0; i < fits; i++ {
		c.Access(uint64(i*32), false)
	}
	h0 := c.Hits()
	for i := 0; i < fits; i++ {
		if r := c.Access(uint64(i*32), false); !r.Hit {
			t.Fatalf("re-traversal of fitting set missed at %d", i)
		}
	}
	if c.Hits()-h0 != uint64(fits) {
		t.Fatal("hit accounting wrong")
	}

	big := 2048 // 64K > 32K
	for i := 0; i < big; i++ {
		c.Access(uint64(0x100000+i*32), false)
	}
	missBefore := c.Misses()
	for i := 0; i < big; i++ {
		c.Access(uint64(0x100000+i*32), false)
	}
	if got := c.Misses() - missBefore; got != uint64(big) {
		t.Fatalf("sequential over-capacity re-scan missed %d of %d (true LRU should miss all)", got, big)
	}
}

func TestHitRate(t *testing.T) {
	c := small()
	if c.HitRate() != 1 {
		t.Fatal("empty cache HitRate != 1")
	}
	c.Access(0, false)
	c.Access(0, false)
	if got := c.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", got)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero line size", Config{Size: 1024, Assoc: 2, LineSize: 0}},
		// Touch and memsys round addresses down to a line with a mask,
		// which walks the wrong lines unless the line size is a power of 2.
		{"48-byte line", Config{Size: 48 * 64, Assoc: 2, LineSize: 48}},
		{"lines not divisible by assoc", Config{Size: 96, Assoc: 2, LineSize: 32}},
		// Addresses split into set and tag with shifts and masks, and the
		// Random victim is a masked draw.
		{"3 ways", Config{Size: 3 * 4 * 32, Assoc: 3, LineSize: 32}},
		{"6 sets", Config{Size: 6 * 2 * 32, Assoc: 2, LineSize: 32}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with %s did not panic", tc.name)
				}
			}()
			New(tc.cfg)
		}()
	}
}

// Property: the cache never holds more distinct lines than its capacity,
// and Probe agrees with a shadow model of per-set LRU.
func TestLRUShadowModelProperty(t *testing.T) {
	type shadowSet struct{ order []uint64 } // front = LRU
	f := func(seed int64, ops []uint16) bool {
		cfg := Config{Size: 512, Assoc: 2, LineSize: 32} // 8 sets
		c := New(cfg)
		numSets := 8
		shadow := make([]shadowSet, numSets)
		rng := rand.New(rand.NewSource(seed))
		for range ops {
			addr := uint64(rng.Intn(64)) * 32
			set := int(addr / 32 % uint64(numSets))
			tag := addr / 32 / uint64(numSets)
			c.Access(addr, rng.Intn(2) == 0)
			s := &shadow[set]
			for i, v := range s.order {
				if v == tag {
					s.order = append(append(s.order[:i], s.order[i+1:]...), tag)
					goto updated
				}
			}
			if len(s.order) == cfg.Assoc {
				s.order = s.order[1:]
			}
			s.order = append(s.order, tag)
		updated:
		}
		// Cross-check every modelled address.
		for a := uint64(0); a < 64*32; a += 32 {
			set := int(a / 32 % uint64(numSets))
			tag := a / 32 / uint64(numSets)
			inShadow := false
			for _, v := range shadow[set].order {
				if v == tag {
					inShadow = true
				}
			}
			if c.Probe(a) != inShadow {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A Random cache never reads use ticks, so it allocates no lru array; an
// LRU cache does.
func TestOnlyLRUCachesTrackUse(t *testing.T) {
	for _, pol := range []Policy{LRU, Random} {
		c := New(Config{Size: 1024, Assoc: 4, LineSize: 32, Policy: pol})
		c.Access(0x40, false)
		c.Access(0x40, true)
		if got := c.lru != nil; got != (pol == LRU) {
			t.Errorf("policy %d: lru array allocated = %v", pol, got)
		}
	}
}
