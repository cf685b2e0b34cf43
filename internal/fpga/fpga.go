// Package fpga estimates the size and speed of ALPU prototypes on a
// Virtex-II Pro 100 -5, regenerating the paper's Tables IV and V.
//
// The paper built the prototypes in JHDL and reported post-implementation
// numbers from the Xilinx tool chain; that flow is proprietary and
// hardware-gated, so this package substitutes a structural estimator
// (DESIGN.md §2): it counts the registers and LUT terms the §III
// architecture synthesizes to, with technology coefficients fitted to the
// twelve published build points. Model error against the published tables
// is below 0.3 % for FFs and LUTs and below 2.5 % for slices; frequency is
// reproduced by a two-tier critical-path model within 0.7 MHz. The fit is
// recorded in EXPERIMENTS.md.
package fpga

import (
	"math"

	"alpusim/internal/alpu"
)

// Params describes a build point: the geometry plus the match/tag widths.
// The prototypes used MatchWidth 42 and TagWidth 16 (§VI-A); Masked says
// whether cells store a mask (posted-receive variant) or take it as an
// input (unexpected variant).
type Params struct {
	Geometry   alpu.Geometry
	MatchWidth int
	TagWidth   int
	Masked     bool
}

// PrototypeParams returns the published build point for a variant.
func PrototypeParams(v alpu.Variant, cells, blockSize int) Params {
	return Params{
		Geometry:   alpu.Geometry{Cells: cells, BlockSize: blockSize},
		MatchWidth: 42,
		TagWidth:   16,
		Masked:     v == alpu.PostedReceives,
	}
}

// Estimate is the resource/speed report for one build point, matching the
// columns of Tables IV and V.
type Estimate struct {
	LUTs          int
	FFs           int
	Slices        int
	FreqMHz       float64
	LatencyCycles int
}

// Technology coefficients (fit to the published tables; see the package
// comment). They are only claimed valid near the prototyped widths.
const (
	// Per-block control overhead beyond the registered request:
	// tag pipeline registers, match-location encode, flow control. Grows
	// with block size (more cells share one block's control).
	blockCtlBase    = 38.0
	blockCtlPerCell = 1.14

	// Top-level control + inter-block tree registers.
	topFFsMasked   = 200.0
	topFFsUnmasked = 110.0

	// Per-cell LUT cost: masked compare of W bits, the cell's share of the
	// T-bit priority-mux tree, and per-cell flow control that grows with
	// block size.
	lutPerMatchBit = 0.97
	lutPerTagBit   = 1.43
	lutCellBase    = 3.28
	lutCellPerBS   = 0.113

	// Slice packing: slices hold two FFs and two LUTs but are rarely
	// packed fully (§VI-A footnote 8); fit across both variants.
	sliceFFWeight  = 0.4422
	sliceLUTWeight = 0.1716

	// Critical path: fanout + compare + intra-block priority muxing fits
	// in an 8.94 ns cycle up to 16-cell blocks; each further doubling of
	// the block adds ~1 ns of mux depth (the published bs=32 points drop
	// to ~100.6 MHz).
	basePeriodNs  = 8.94
	periodPerLvl  = 1.0
	freeMuxLevels = 4 // log2(16)

	// ASICFreqScale is the paper's (conservative) 5x estimate for moving
	// from the FPGA to a standard-cell ASIC (§VI-A footnote 9).
	ASICFreqScale = 5.0
)

// Estimate computes the resource and timing estimate for p.
func (p Params) Estimate() Estimate {
	g := p.Geometry
	nb := g.Blocks()
	w := float64(p.MatchWidth)
	t := float64(p.TagWidth)
	bs := float64(g.BlockSize)
	n := float64(g.Cells)

	// Flip-flops: each cell stores match bits (+ mask bits when Masked),
	// the tag, and a valid bit. Each block registers its copy of the
	// request — the probe's match bits, plus the mask input for the
	// unmasked variant (Fig. 2(b)) — plus block control.
	cellFF := w + t + 1
	reqFF := w
	if p.Masked {
		cellFF += w
	} else {
		reqFF += w
	}
	blockFF := reqFF + blockCtlBase + blockCtlPerCell*bs
	topFF := topFFsUnmasked
	if p.Masked {
		topFF = topFFsMasked
	}
	ffs := n*cellFF + float64(nb)*blockFF + topFF

	// LUTs: compare logic and mux tree scale with the cell count; the
	// compare consumes one 4-LUT per match bit (XOR + mask + AND-tree
	// start) regardless of where the mask comes from, which is why the
	// published LUT counts are nearly identical across the two variants.
	lutCell := lutPerMatchBit*w + lutPerTagBit*t + lutCellBase + lutCellPerBS*bs
	luts := n * lutCell

	slices := sliceFFWeight*ffs + sliceLUTWeight*luts

	lvl := math.Log2(bs) - freeMuxLevels
	if lvl < 0 {
		lvl = 0
	}
	period := basePeriodNs + periodPerLvl*lvl
	freq := 1000.0 / period

	return Estimate{
		LUTs:          int(math.Round(luts)),
		FFs:           int(math.Round(ffs)),
		Slices:        int(math.Round(slices)),
		FreqMHz:       math.Round(freq*10) / 10,
		LatencyCycles: g.PipelineCycles(),
	}
}

// ASICFreqMHz returns the projected standard-cell clock for an estimate,
// per the paper's 5x scaling ("the prototypes would all run at about
// 500 MHz", §VI-A).
func (e Estimate) ASICFreqMHz() float64 { return e.FreqMHz * ASICFreqScale }

// Published is one row of the paper's Tables IV/V for validation.
type Published struct {
	Cells, BlockSize  int
	LUTs, FFs, Slices int
	FreqMHz           float64
	LatencyCycles     int
}

// PublishedPosted is the paper's Table IV (posted receives ALPU).
var PublishedPosted = []Published{
	{256, 8, 17372, 28908, 15766, 112.5, 7},
	{256, 16, 17573, 27656, 15090, 111.4, 7},
	{256, 32, 18054, 26971, 14742, 100.2, 6},
	{128, 8, 8687, 14562, 7945, 111.5, 7},
	{128, 16, 8786, 13897, 7606, 112.1, 6},
	{128, 32, 9025, 13605, 7431, 100.6, 6},
}

// PublishedUnexpected is the paper's Table V (unexpected messages ALPU).
var PublishedUnexpected = []Published{
	{256, 8, 17339, 19414, 11562, 112.1, 7},
	{256, 16, 17556, 17490, 10631, 111.9, 7},
	{256, 32, 18045, 16469, 10350, 100.9, 6},
	{128, 8, 8672, 9773, 5806, 111.2, 7},
	{128, 16, 8777, 8771, 5356, 112.1, 6},
	{128, 32, 9020, 8311, 5215, 100.6, 6},
}

// PublishedFor returns the validation table for a variant.
func PublishedFor(v alpu.Variant) []Published {
	if v == alpu.PostedReceives {
		return PublishedPosted
	}
	return PublishedUnexpected
}

// Comparison is one published build point beside the estimator's figures
// for it: the row Tables IV/V print and the validation test checks.
type Comparison struct {
	Published
	Est Estimate
	// LUTErr, FFErr and SliceErr are the relative errors of the resource
	// columns, as fractions of the published value.
	LUTErr, FFErr, SliceErr float64
}

// MaxErr returns the largest relative error across the resource columns.
func (c Comparison) MaxErr() float64 { return max(c.LUTErr, c.FFErr, c.SliceErr) }

// Compare estimates every published build point of a variant, in table
// order.
func Compare(v alpu.Variant) []Comparison {
	pubs := PublishedFor(v)
	out := make([]Comparison, len(pubs))
	for i, pub := range pubs {
		e := PrototypeParams(v, pub.Cells, pub.BlockSize).Estimate()
		out[i] = Comparison{
			Published: pub,
			Est:       e,
			LUTErr:    relErr(e.LUTs, pub.LUTs),
			FFErr:     relErr(e.FFs, pub.FFs),
			SliceErr:  relErr(e.Slices, pub.Slices),
		}
	}
	return out
}

func relErr(got, want int) float64 {
	return math.Abs(float64(got-want)) / float64(want)
}
