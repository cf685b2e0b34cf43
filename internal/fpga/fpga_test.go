package fpga

import (
	"math"
	"testing"

	"alpusim/internal/alpu"
)

// The estimator must land on the published Tables IV and V within the
// documented tolerances. The rows come from Compare, the same computation
// behind the max-error column of alpusim's tab4/tab5, so the printed
// column and the bounds checked here cannot drift apart.
func TestEstimatorMatchesPublishedTables(t *testing.T) {
	for _, v := range []alpu.Variant{alpu.PostedReceives, alpu.UnexpectedMessages} {
		rows := Compare(v)
		if len(rows) != len(PublishedFor(v)) {
			t.Fatalf("%s: Compare returned %d rows, want %d", v, len(rows), len(PublishedFor(v)))
		}
		for i, c := range rows {
			name := v.String()
			e := c.Est
			if c.Published != PublishedFor(v)[i] {
				t.Errorf("%s row %d: %+v, want published order %+v", name, i, c.Published, PublishedFor(v)[i])
			}
			if e != PrototypeParams(v, c.Cells, c.BlockSize).Estimate() {
				t.Errorf("%s %d/%d: Compare estimate %+v is not Estimate()", name, c.Cells, c.BlockSize, e)
			}
			if c.FFErr > 0.003 {
				t.Errorf("%s %d/%d: FFs %d vs published %d (%.2f%%)",
					name, c.Cells, c.BlockSize, e.FFs, c.FFs, c.FFErr*100)
			}
			if c.LUTErr > 0.003 {
				t.Errorf("%s %d/%d: LUTs %d vs published %d (%.2f%%)",
					name, c.Cells, c.BlockSize, e.LUTs, c.LUTs, c.LUTErr*100)
			}
			if c.SliceErr > 0.025 {
				t.Errorf("%s %d/%d: slices %d vs published %d (%.2f%%)",
					name, c.Cells, c.BlockSize, e.Slices, c.Slices, c.SliceErr*100)
			}
			if c.MaxErr() > 0.025 {
				t.Errorf("%s %d/%d: max error %.2f%%, want within 2.5%%",
					name, c.Cells, c.BlockSize, c.MaxErr()*100)
			}
			if d := math.Abs(e.FreqMHz - c.FreqMHz); d > 1.5 {
				t.Errorf("%s %d/%d: freq %.1f vs published %.1f",
					name, c.Cells, c.BlockSize, e.FreqMHz, c.FreqMHz)
			}
			if e.LatencyCycles != c.LatencyCycles {
				t.Errorf("%s %d/%d: latency %d vs published %d",
					name, c.Cells, c.BlockSize, e.LatencyCycles, c.LatencyCycles)
			}
		}
	}
}

func TestPostedLargerThanUnexpected(t *testing.T) {
	// The posted-receive cell stores mask bits, so at equal geometry it
	// must cost more FFs and slices (compare Tables IV and V).
	for _, g := range []alpu.Geometry{{Cells: 128, BlockSize: 16}, {Cells: 256, BlockSize: 8}} {
		pr := PrototypeParams(alpu.PostedReceives, g.Cells, g.BlockSize).Estimate()
		un := PrototypeParams(alpu.UnexpectedMessages, g.Cells, g.BlockSize).Estimate()
		if pr.FFs <= un.FFs {
			t.Errorf("geometry %+v: posted FFs %d <= unexpected FFs %d", g, pr.FFs, un.FFs)
		}
		if pr.Slices <= un.Slices {
			t.Errorf("geometry %+v: posted slices %d <= unexpected slices %d", g, pr.Slices, un.Slices)
		}
	}
}

func TestScalingTrends(t *testing.T) {
	// Doubling the cells roughly doubles the resources.
	small := PrototypeParams(alpu.PostedReceives, 128, 16).Estimate()
	big := PrototypeParams(alpu.PostedReceives, 256, 16).Estimate()
	if r := float64(big.FFs) / float64(small.FFs); r < 1.9 || r > 2.1 {
		t.Errorf("FF scaling 128->256 = %.2f, want ~2", r)
	}
	// Bigger blocks cost fewer slices but clock slower (Tables IV/V trend).
	bs8 := PrototypeParams(alpu.PostedReceives, 256, 8).Estimate()
	bs32 := PrototypeParams(alpu.PostedReceives, 256, 32).Estimate()
	if bs32.Slices >= bs8.Slices {
		t.Errorf("slices bs32 (%d) >= bs8 (%d)", bs32.Slices, bs8.Slices)
	}
	if bs32.FreqMHz >= bs8.FreqMHz {
		t.Errorf("freq bs32 (%.1f) >= bs8 (%.1f)", bs32.FreqMHz, bs8.FreqMHz)
	}
}

func TestASICFrequencyNear500MHz(t *testing.T) {
	// §VI-A: "the prototypes would all run at about 500MHz" as ASICs.
	for _, v := range []alpu.Variant{alpu.PostedReceives, alpu.UnexpectedMessages} {
		for _, pub := range PublishedFor(v) {
			e := PrototypeParams(v, pub.Cells, pub.BlockSize).Estimate()
			f := e.ASICFreqMHz()
			if f < 450 || f > 600 {
				t.Errorf("%s %d/%d: ASIC projection %.0f MHz, want ~500", v, pub.Cells, pub.BlockSize, f)
			}
		}
	}
}

func TestUnprototypedGeometry(t *testing.T) {
	// The estimator extrapolates to geometries the paper did not build
	// without producing nonsense.
	e := PrototypeParams(alpu.PostedReceives, 512, 16).Estimate()
	if e.FFs <= 0 || e.LUTs <= 0 || e.Slices <= 0 || e.FreqMHz <= 0 {
		t.Fatalf("bad estimate %+v", e)
	}
	ref := PrototypeParams(alpu.PostedReceives, 256, 16).Estimate()
	if e.FFs < 2*ref.FFs-200 {
		t.Errorf("512-cell FFs %d not ~2x the 256-cell %d", e.FFs, ref.FFs)
	}
	if e.LatencyCycles != 7 {
		t.Errorf("512/16 latency = %d, want 7 (32 blocks)", e.LatencyCycles)
	}
}
