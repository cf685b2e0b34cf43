package alpu

import (
	"fmt"
	"testing"

	"alpusim/internal/match"
	"alpusim/internal/sim"
)

// Micro-benchmarks of the Device hot paths — insert, search at depth
// (hit and miss), the compaction drain after an insert fragments the
// array, stepped per cycle and as one batched burst, and a train of
// climbers below a half-full stack — across the §VI-A geometry grid (128/256 cells × block
// 8/16/32). They exist in a non-test file so the alpusim bench harness
// can fold the results into BENCH.json; go test -bench reaches them
// through BenchmarkMicro. The numbers measure host cost of simulating
// the operation (the model-performance target of DESIGN.md), not
// simulated latency — that is what the figure benchmarks report.

// MicroResult is one micro-benchmark measurement for BENCH.json.
type MicroResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// MicroCase names one runnable micro-benchmark.
type MicroCase struct {
	Name  string
	Bench func(b *testing.B)
}

// MicroGeometries is the benchmark grid: the geometries §VI-A explores.
func MicroGeometries() []Geometry {
	var gs []Geometry
	for _, cells := range []int{128, 256} {
		for _, block := range []int{8, 16, 32} {
			gs = append(gs, Geometry{Cells: cells, BlockSize: block})
		}
	}
	return gs
}

// MicroCases enumerates every micro-benchmark on the geometry grid.
func MicroCases() []MicroCase {
	var cases []MicroCase
	for _, g := range MicroGeometries() {
		g := g
		suffix := fmt.Sprintf("/cells=%d/block=%d", g.Cells, g.BlockSize)
		cases = append(cases,
			MicroCase{"insert" + suffix, func(b *testing.B) { microInsert(b, g) }},
			MicroCase{"search-hit" + suffix, func(b *testing.B) { microSearch(b, g, true) }},
			MicroCase{"search-miss" + suffix, func(b *testing.B) { microSearch(b, g, false) }},
			MicroCase{"compact-drain" + suffix, func(b *testing.B) { microCompactDrain(b, g) }},
			MicroCase{"compact-burst" + suffix, func(b *testing.B) { microCompactBurst(b, g) }},
			MicroCase{"climb-train" + suffix, func(b *testing.B) { microClimbTrain(b, g) }},
		)
	}
	return cases
}

// RunMicroBenchmarks runs every case through testing.Benchmark for the
// BENCH.json harness.
func RunMicroBenchmarks() []MicroResult {
	var out []MicroResult
	for _, c := range MicroCases() {
		r := testing.Benchmark(c.Bench)
		out = append(out, MicroResult{
			Name:        c.Name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return out
}

func microConfig(g Geometry) Config {
	cfg := DefaultConfig(PostedReceives, g.Cells)
	cfg.Geometry = g
	return cfg
}

// microFill writes a compacted suffix of n entries directly (white-box),
// the lowest of which matches microProbe() when withMatch is set.
func microFill(d *Device, n int, withMatch bool) {
	hitBits, hitMask := match.PackRecv(match.Recv{Context: 1, Source: 2, Tag: 3})
	missBits, missMask := match.PackRecv(match.Recv{Context: 7, Source: 8, Tag: 9})
	cells := len(d.cells)
	for i := 0; i < n; i++ {
		idx := cells - n + i
		c := cell{valid: true, bits: missBits, mask: missMask, tag: uint32(i)}
		if withMatch && i == 0 {
			c.bits, c.mask = hitBits, hitMask
		}
		d.cells[idx] = c
	}
	d.rebuildBits()
}

func microProbe() Probe {
	return Probe{Bits: match.Pack(match.Header{Context: 1, Source: 2, Tag: 3})}
}

// microInsert measures one INSERT through the command FIFO, including
// the climb out of cell 0, with the array held near half occupancy by
// periodic resets (amortised into the loop).
func microInsert(b *testing.B, g Geometry) {
	eng := sim.NewEngine()
	d := MustDevice(eng, "bench", microConfig(g))
	bits, mask := match.PackRecv(match.Recv{Context: 1, Source: 2, Tag: 3})
	eng.Spawn("drv", func(p *sim.Process) {
		ack := func() {
			p.WaitCond(d.Results.NotEmpty, func() bool { return d.Results.Len() > 0 })
			d.Results.Pop()
		}
		push := func(c Command) {
			for !d.PushCommand(c) {
				p.WaitCond(d.Commands.NotFull, func() bool { return !d.Commands.Full() })
			}
		}
		push(Command{Op: OpStartInsert})
		ack()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d.Occupancy() >= g.Cells/2 {
				push(Command{Op: OpStopInsert})
				push(Command{Op: OpReset})
				push(Command{Op: OpStartInsert})
				ack()
			}
			push(Command{Op: OpInsert, Bits: bits, Mask: mask, Tag: uint32(i)})
		}
		b.StopTimer()
	})
	eng.Run()
}

// microSearch measures one probe through the header FIFO against a
// half-full array. The hit case matches the deepest (lowest-index)
// entry, so the priority scan traverses the full occupied suffix; the
// deleted entry is restored between iterations (white-box) to keep the
// depth constant.
func microSearch(b *testing.B, g Geometry, hit bool) {
	eng := sim.NewEngine()
	d := MustDevice(eng, "bench", microConfig(g))
	depth := g.Cells / 2
	microFill(d, depth, hit)
	snapshot := append([]cell(nil), d.cells...)
	probe := microProbe()
	eng.Spawn("drv", func(p *sim.Process) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.PushProbe(probe)
			p.WaitCond(d.Results.NotEmpty, func() bool { return d.Results.Len() > 0 })
			r, _ := d.Results.Pop()
			if hit {
				if r.Kind != RespMatchSuccess {
					b.Fatalf("want hit, got %v", r.Kind)
				}
				copy(d.cells, snapshot)
				d.rebuildBits()
			} else if r.Kind != RespMatchFailure {
				b.Fatalf("want miss, got %v", r.Kind)
			}
		}
		b.StopTimer()
	})
	eng.Run()
}

// microClimbers builds a device holding a compacted half-full suffix with
// the given cells below it also valid: the entries still climbing.
func microClimbers(g Geometry, at ...int) *Device {
	d := MustDevice(sim.NewEngine(), "bench", microConfig(g))
	microFill(d, g.Cells/2, false)
	bits, mask := match.PackRecv(match.Recv{Context: 1, Source: 2, Tag: 3})
	for k, i := range at {
		d.cells[i] = cell{valid: true, bits: bits, mask: mask, tag: uint32(1000 + k)}
	}
	d.rebuildBits()
	return d
}

// microCompactDrain measures a full idle compaction on the per-cycle
// path: a fresh entry in cell 0 below a compacted half-full suffix,
// stepped until quiescent. This exercises the step kernel directly,
// without engine events.
func microCompactDrain(b *testing.B, g Geometry) {
	d := microClimbers(g, 0)
	template := append([]cell(nil), d.cells...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(d.cells, template)
		d.rebuildBits()
		for d.shiftStep() {
		}
	}
}

// microCompactBurst is the compact-drain state advanced on the batched
// path: one materializeSteps burst of Cells cycles.
func microCompactBurst(b *testing.B, g Geometry) {
	microBurst(b, g, microClimbers(g, 0))
}

// microClimbTrain is the Fig. 6 shape on the batched path: 20 entries two
// cells apart climbing toward a half-full stack, advanced by one
// materializeSteps burst of Cells cycles.
func microClimbTrain(b *testing.B, g Geometry) {
	at := make([]int, 20)
	for k := range at {
		at[k] = 2 * k
	}
	microBurst(b, g, microClimbers(g, at...))
}

func microBurst(b *testing.B, g Geometry, d *Device) {
	template := append([]cell(nil), d.cells...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(d.cells, template)
		d.rebuildBits()
		d.materializeSteps(g.Cells)
	}
}
