package alpu

import (
	"fmt"
	"math/rand"
	"testing"

	"alpusim/internal/match"
	"alpusim/internal/sim"
)

// The batched compaction path is pinned by a chain of differential checks:
// the per-bool stepValid scan against the word-parallel bitStep, and the
// closed-form bursts of materializeSteps against repeated bitStep calls.
// The per-cycle device path (shiftStep) is the same bitStep, so the chain
// ends at the reference stepping model.

// compactGeometries lists the packed-bitmap geometries the checks cover:
// 64 to 512 cells with every block size from 1 to 64 that divides them.
// 96 cells leaves a partial top word, which exercises lastMask.
func compactGeometries() []Geometry {
	var gs []Geometry
	for _, cells := range []int{64, 96, 128, 256, 512} {
		for _, block := range []int{1, 2, 8, 16, 32, 64} {
			if cells%block == 0 {
				gs = append(gs, Geometry{Cells: cells, BlockSize: block})
			}
		}
	}
	return gs
}

// compactDevice builds a device that is never run: the checks drive its
// compaction kernels directly.
func compactDevice(t testing.TB, g Geometry, anyBlock bool) *Device {
	t.Helper()
	cfg := testConfig(PostedReceives, g.Cells, g.BlockSize)
	cfg.CompactAnyBlock = anyBlock
	d, err := NewDevice(sim.NewEngine(), "compact", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.valid == nil {
		t.Fatalf("geometry %+v has no packed bitmap", g)
	}
	return d
}

// loadCells fills d with a distinct, parity-stamped entry in every cell
// that valid marks.
func loadCells(d *Device, valid []bool, rng *rand.Rand) {
	for i := range d.cells {
		d.cells[i] = cell{}
		if !valid[i] {
			continue
		}
		b, m, tag := match.Bits(rng.Uint64()), match.Bits(rng.Uint64()), uint32(i+1)
		d.cells[i] = cell{valid: true, bits: b, mask: m, tag: tag, par: cellParity(b, m, tag)}
	}
	d.rebuildBits()
}

// burstPattern draws a valid-cell pattern. Most draws are a compacted
// stack (possibly empty, possibly the whole array) with climbers below it,
// at least two apart; some of those then get adjacent pairs, placed across
// a word boundary when there is one, so they fail the isolation test. The
// rest are uniform at a random density.
func burstPattern(rng *rand.Rand, cells int) []bool {
	valid := make([]bool, cells)
	if rng.Intn(4) == 0 {
		density := []float64{0.1, 0.5, 0.9}[rng.Intn(3)]
		for i := range valid {
			valid[i] = rng.Float64() < density
		}
		return valid
	}
	var h int
	switch rng.Intn(4) {
	case 0:
		h = 0
	case 1:
		h = cells - rng.Intn(3)
	default:
		h = rng.Intn(cells/2 + 1)
	}
	s := cells - h
	for i := s; i < cells; i++ {
		valid[i] = true
	}
	maxGap := 1 + rng.Intn(8)
	for p := s - 2 - rng.Intn(4); p >= 0; {
		valid[p] = true
		p -= 2 + rng.Intn(maxGap)
	}
	if rng.Intn(3) == 0 {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			p := rng.Intn(cells)
			if words := (s - 2) / 64; words > 0 && rng.Intn(2) == 0 {
				p = 64*(1+rng.Intn(words)) - 1
			}
			if p+1 < s-1 {
				valid[p], valid[p+1] = true, true
			}
		}
	}
	return valid
}

// checkBurst loads valid into two devices, advances one by
// materializeSteps(n) and the other by up to n calls of bitStep — stopping
// at the first that moves nothing, as the per-step loop did — and compares
// the cells (tags and parity included), the bitmaps and ShiftCycles. It
// reports whether the closed form applied to the starting state.
func checkBurst(t testing.TB, g Geometry, anyBlock bool, valid []bool, n int, seed int64) bool {
	t.Helper()
	got, want := compactDevice(t, g, anyBlock), compactDevice(t, g, anyBlock)
	loadCells(got, valid, rand.New(rand.NewSource(seed)))
	loadCells(want, valid, rand.New(rand.NewSource(seed)))
	_, fast := got.climbers()

	got.materializeSteps(n)
	for i := 0; i < n && want.bitStep(want.valid, true); i++ {
		want.stats.ShiftCycles++
	}

	where := fmt.Sprintf("cells=%d block=%d anyBlock=%v n=%d fast=%v", g.Cells, g.BlockSize, anyBlock, n, fast)
	if got.stats.ShiftCycles != want.stats.ShiftCycles {
		t.Fatalf("%s: ShiftCycles %d, per-step %d\nstart: %s", where,
			got.stats.ShiftCycles, want.stats.ShiftCycles, patternString(valid))
	}
	for i := range got.cells {
		if got.cells[i] != want.cells[i] {
			t.Fatalf("%s: cell %d = %+v, per-step %+v\nstart: %s", where,
				i, got.cells[i], want.cells[i], patternString(valid))
		}
	}
	for w := range got.valid {
		if got.valid[w] != want.valid[w] {
			t.Fatalf("%s: bitmap word %d = %#x, per-step %#x", where, w, got.valid[w], want.valid[w])
		}
	}
	return fast
}

// patternString renders a valid pattern top cell first, for failures.
func patternString(valid []bool) string {
	b := make([]byte, len(valid))
	for i, v := range valid {
		b[len(valid)-1-i] = '.'
		if v {
			b[len(valid)-1-i] = '#'
		}
	}
	return string(b)
}

// TestStepValidMatchesBitStep pins the word-parallel step to the readable
// per-bool scan: from random patterns, both advance cycle by cycle to
// quiescence and must agree on the moved flag, the bitmap and every cell.
func TestStepValidMatchesBitStep(t *testing.T) {
	states := 40
	if testing.Short() {
		states = 10
	}
	rng := rand.New(rand.NewSource(1))
	for _, g := range compactGeometries() {
		for _, anyBlock := range []bool{false, true} {
			d := compactDevice(t, g, anyBlock)
			before, cur := make([]bool, g.Cells), make([]bool, g.Cells)
			for k := 0; k < states; k++ {
				valid := burstPattern(rng, g.Cells)
				loadCells(d, valid, rng)
				ref := append([]cell(nil), d.cells...)
				move := func(i int) {
					ref[i+1] = ref[i]
					ref[i] = cell{}
				}
				copy(cur, valid)
				for step := 0; ; step++ {
					copy(before, cur)
					want := d.stepValid(before, cur, move)
					if got := d.bitStep(d.valid, true); got != want {
						t.Fatalf("%+v anyBlock=%v step %d: bitStep moved=%v, stepValid %v",
							g, anyBlock, step, got, want)
					}
					for i := range cur {
						if (d.valid[i/64]>>uint(i%64)&1 == 1) != cur[i] || d.cells[i] != ref[i] {
							t.Fatalf("%+v anyBlock=%v step %d: cell %d diverges", g, anyBlock, step, i)
						}
					}
					if !want {
						break
					}
				}
			}
		}
	}
}

// TestMaterializeStepsMatchesBitSteps is the oracle for the closed-form
// bursts: materializeSteps(n) must leave exactly the state of n per-step
// cycles. The generator makes most starting states take the closed form
// and the rest fall back, and the test fails if either kind is rare.
func TestMaterializeStepsMatchesBitSteps(t *testing.T) {
	states := 12
	if testing.Short() {
		states = 3
	}
	rng := rand.New(rand.NewSource(2))
	total, fast := 0, 0
	for _, g := range compactGeometries() {
		for _, anyBlock := range []bool{false, true} {
			for _, n := range []int{1, 2, 7, 64, g.Cells, 3 * g.Cells} {
				for k := 0; k < states; k++ {
					if checkBurst(t, g, anyBlock, burstPattern(rng, g.Cells), n, rng.Int63()) {
						fast++
					}
					total++
				}
			}
		}
	}
	t.Logf("closed form applied to %d of %d starting states", fast, total)
	if fast*2 < total || fast*10 > total*9 {
		t.Fatalf("closed form applied to %d of %d starting states; want between half and nine tenths", fast, total)
	}
}

// FuzzCompactionBurst decodes bytes into a geometry, a space-available
// rule, a starting pattern and a burst length, and makes the same
// comparison as TestMaterializeStepsMatchesBitSteps.
//
// Layout: byte 0 picks the geometry; bit 0 of byte 1 the rule; bits 1-7 of
// byte 1 and byte 2 the burst length n in [1, 3·Cells]. Bit 0 of byte 3
// picks the pattern encoding. Raw: the remaining bytes are the valid
// bitmap, cell 0 first. Stack: byte 4 is the stack height, and each
// further byte places the next climber down, 2 + (b & 15) cells below the
// last, with an adjacent partner below it when b & 16 is set.
func FuzzCompactionBurst(f *testing.F) {
	geoms := compactGeometries()
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		g := geoms[at(0)%len(geoms)]
		anyBlock := at(1)&1 == 1
		n := 1 + (at(1)>>1|at(2)<<7)%(3*g.Cells)
		valid := make([]bool, g.Cells)
		if at(3)&1 == 0 {
			for i := range valid {
				valid[i] = at(4+i/8)>>uint(i%8)&1 == 1
			}
		} else {
			s := g.Cells - at(4)%(g.Cells+1)
			for i := s; i < g.Cells; i++ {
				valid[i] = true
			}
			p := s
			for _, b := range data[min(5, len(data)):] {
				p -= 2 + int(b&15)
				if p < 0 {
					break
				}
				valid[p] = true
				if b&16 != 0 && p > 0 {
					valid[p-1] = true
				}
			}
		}
		checkBurst(t, g, anyBlock, valid, n, int64(len(data)))
	})
}
