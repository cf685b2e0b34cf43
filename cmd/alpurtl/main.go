// Command alpurtl emits parameterized Verilog for an ALPU build point —
// the role JHDL played for the paper's FPGA prototype (§V-D). The
// datapath (cells, blocks, priority trees, compaction/spill chains) is
// complete; the top-level sequencing is a behavioural skeleton of the
// Fig. 3 machine. The emitted register counts are cross-checked against
// the internal/fpga resource model by the test suite.
//
//	alpurtl [-cells 128] [-block 16] [-variant posted|unexpected]
//	        [-match 42] [-tag 16] [-name alpu] [-o alpu.v]
package main

import (
	"flag"
	"fmt"
	"os"

	"alpusim/internal/alpu"
	"alpusim/internal/fpga"
	"alpusim/internal/rtl"
)

func main() {
	cells := flag.Int("cells", 128, "total cells")
	block := flag.Int("block", 16, "cells per block (power of 2)")
	variant := flag.String("variant", "posted", "posted or unexpected")
	matchW := flag.Int("match", 42, "match width in bits")
	tagW := flag.Int("tag", 16, "tag width in bits")
	name := flag.String("name", "alpu", "module name prefix")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()
	v, err := alpu.ParseVariant(*variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alpurtl: -variant:", err)
		os.Exit(1)
	}

	d := rtl.Design{
		Geometry:   alpu.Geometry{Cells: *cells, BlockSize: *block},
		MatchWidth: *matchW,
		TagWidth:   *tagW,
		Masked:     v == alpu.PostedReceives,
		Name:       *name,
	}
	src, err := d.Generate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "alpurtl:", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "alpurtl:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	fmt.Fprint(w, src)

	est := fpga.Params{
		Geometry:   d.Geometry,
		MatchWidth: d.MatchWidth,
		TagWidth:   d.TagWidth,
		Masked:     d.Masked,
	}.Estimate()
	fmt.Fprintf(os.Stderr,
		"alpurtl: %d data register bits emitted; estimator projects %d FFs total, %d LUTs, %.1f MHz, %d-cycle pipeline on the prototype part\n",
		d.TotalDataRegBits(), est.FFs, est.LUTs, est.FreqMHz, est.LatencyCycles)
}
