package dram

import (
	"testing"

	"alpusim/internal/sim"
)

func cfg() Config {
	return Config{
		Banks:          4,
		RowBytes:       1024,
		RowHitLatency:  20 * sim.Nanosecond,
		RowMissLatency: 50 * sim.Nanosecond,
		BusyPerAccess:  10 * sim.Nanosecond,
	}
}

func TestRowMissThenHit(t *testing.T) {
	d := New(cfg())
	if lat := d.Access(0, 0); lat != 50*sim.Nanosecond {
		t.Fatalf("cold access latency = %v, want 50ns", lat)
	}
	if lat := d.Access(sim.Microsecond, 64); lat != 20*sim.Nanosecond {
		t.Fatalf("open-row access latency = %v, want 20ns", lat)
	}
	if d.RowHits() != 1 {
		t.Fatalf("RowHits = %d, want 1", d.RowHits())
	}
}

func TestRowConflict(t *testing.T) {
	d := New(cfg())
	d.Access(0, 0)
	// Same bank (banks interleave by row): row 0 and row 4 share bank 0.
	conflictAddr := uint64(4 * 1024)
	if lat := d.Access(sim.Microsecond, conflictAddr); lat != 50*sim.Nanosecond {
		t.Fatalf("row conflict latency = %v, want 50ns", lat)
	}
	// Original row is now closed.
	if lat := d.Access(2*sim.Microsecond, 0); lat != 50*sim.Nanosecond {
		t.Fatalf("reopened row latency = %v, want 50ns", lat)
	}
}

func TestBankParallelism(t *testing.T) {
	d := New(cfg())
	// Different banks don't queue behind one another.
	lat0 := d.Access(0, 0)    // bank 0
	lat1 := d.Access(0, 1024) // bank 1, same instant
	if lat0 != 50*sim.Nanosecond || lat1 != 50*sim.Nanosecond {
		t.Fatalf("parallel bank latencies = %v, %v; want 50ns each", lat0, lat1)
	}
	if d.StallTime() != 0 {
		t.Fatalf("StallTime = %v, want 0", d.StallTime())
	}
}

func TestBankSerialisation(t *testing.T) {
	d := New(cfg())
	d.Access(0, 0) // bank 0 busy until 10ns
	// Second access to bank 0 at time 0 stalls 10ns, then row-hits.
	if lat := d.Access(0, 64); lat != 30*sim.Nanosecond {
		t.Fatalf("queued access latency = %v, want 30ns (10 stall + 20 hit)", lat)
	}
	if d.StallTime() != 10*sim.Nanosecond {
		t.Fatalf("StallTime = %v, want 10ns", d.StallTime())
	}
}

func TestReset(t *testing.T) {
	d := New(cfg())
	d.Access(0, 0)
	d.Reset()
	if lat := d.Access(sim.Microsecond, 64); lat != 50*sim.Nanosecond {
		t.Fatalf("post-Reset access = %v, want 50ns (row closed)", lat)
	}
	if d.Accesses() != 2 {
		t.Fatalf("Accesses = %d, want 2 (stats survive Reset)", d.Accesses())
	}
}

func TestDefaultConfig(t *testing.T) {
	d := New(DefaultConfig())
	if lat := d.Access(0, 0); lat <= 0 {
		t.Fatal("default config access has non-positive latency")
	}
}

func TestDegenerateConfigSafe(t *testing.T) {
	d := New(Config{}) // all zero: must self-correct, not divide by zero
	if lat := d.Access(0, 12345); lat < 0 {
		t.Fatal("degenerate config produced negative latency")
	}
}

func TestStreamingRowHits(t *testing.T) {
	d := New(cfg())
	// A sequential stream within one row: first access opens, rest hit.
	var now sim.Time
	miss, hit := 0, 0
	for off := uint64(0); off < 1024; off += 64 {
		lat := d.Access(now, off)
		if lat >= 50*sim.Nanosecond {
			miss++
		} else {
			hit++
		}
		now += 100 * sim.Nanosecond
	}
	if miss != 1 || hit != 15 {
		t.Fatalf("stream: %d misses, %d hits; want 1, 15", miss, hit)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, c := range []Config{{Banks: 3, RowBytes: 1024}, {Banks: 4, RowBytes: 1000}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", c)
				}
			}()
			New(c)
		}()
	}
}

// The shift-and-mask split must map every address to the bank and row the
// division it replaces gives.
func TestBankRowMatchesDivision(t *testing.T) {
	for _, c := range []Config{cfg(), DefaultConfig(), {}} {
		d := New(c)
		rowBytes, banks := uint64(d.cfg.RowBytes), uint64(d.cfg.Banks)
		for _, addr := range []uint64{0, 63, 1023, 1024, 4095, 4096, 0x1_0000, 0x800_0000 + 8*4095, 0x9e37_79b9_7f4a_7c15 >> 1} {
			b, row := d.bankRow(addr)
			if wantB, wantRow := int(addr/rowBytes%banks), int64(addr/rowBytes/banks); b != wantB || row != wantRow {
				t.Errorf("%+v: bankRow(%#x) = %d, %d, want %d, %d", c, addr, b, row, wantB, wantRow)
			}
		}
	}
}
