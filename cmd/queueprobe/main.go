// Command queueprobe drives a standalone ALPU device model with the
// Table I/II command protocol, the role the paper's FPGA prototype played
// for exploring and refining the control interface (§I, §V-D).
//
// It reads a small command language from stdin (or runs a demo script
// with -demo):
//
//	start                         START INSERT
//	insert <ctx> <src|*> <tag|*> <alputag>
//	stop                          STOP INSERT
//	reset                         RESET
//	probe <ctx> <src|*> <tag|*>   push a header/receive probe
//	occupancy | tags | stats      inspect the device
//
// Responses are printed as they appear in the result FIFO, with
// simulated timestamps.
//
//	queueprobe [-cells 128] [-block 16] [-variant posted|unexpected] [-demo]
//	           [-trace FILE] [-metrics FILE]
//
// -trace FILE writes the session's device activity (insert/search spans
// on the simulated clock) as Chrome trace-event JSON; -metrics FILE
// writes the device counters as a metrics snapshot. "-" means stdout.
//
// -serve ADDR runs the shared observability HTTP server (/metrics,
// /healthz, /progress, /critpath, /report, /timeseries) for the session;
// queueprobe re-publishes the device counters to /metrics after every
// command. The run-report endpoints answer 503 here — single-device
// probing has no world to report on; they are alpusim's and
// queuestudy's.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"alpusim/internal/alpu"
	"alpusim/internal/match"
	"alpusim/internal/obs"
	"alpusim/internal/profiling"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
)

var (
	cells      = flag.Int("cells", 128, "total cells")
	block      = flag.Int("block", 16, "cells per block (power of 2)")
	variant    = flag.String("variant", "posted", "posted or unexpected")
	demo       = flag.Bool("demo", false, "run the built-in demo script")
	tracePath  = flag.String("trace", "", "write Chrome trace-event JSON to this file (\"-\" = stdout)")
	metricsOut = flag.String("metrics", "", "write the device metrics snapshot JSON to this file (\"-\" = stdout)")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	serveAddr  = flag.String("serve", "", "serve the live observability plane (/metrics, /healthz, /progress, /critpath, /report, /timeseries) on this address; the device counters are re-published after every command")
	linger     = flag.Duration("linger", 0, "with -serve: keep the observability server up this long after the session ends")
)

const demoScript = `start
insert 1 * 7 100
insert 1 3 7 200
insert 1 4 9 300
stop
occupancy
probe 1 3 7
probe 1 3 7
probe 1 9 1
tags
reset
occupancy
stats
`

func main() {
	flag.Parse()
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "queueprobe:", err)
		os.Exit(1)
	}
	defer stopProf()
	v, err := alpu.ParseVariant(*variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, "queueprobe: -variant:", err)
		os.Exit(1)
	}
	cfg := alpu.DefaultConfig(v, *cells)
	cfg.Geometry.BlockSize = *block
	var tracer *telemetry.Tracer
	if *tracePath != "" {
		tracer = telemetry.NewTracer()
		tracer.NameProcess(0, "alpu")
		cfg.Tracer = tracer
	}
	eng := sim.NewEngine()
	dev, err := alpu.NewDevice(eng, "alpu", cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "queueprobe:", err)
		os.Exit(1)
	}
	fmt.Printf("ALPU %s: %d cells, block %d, %d-cycle pipeline at %.0f MHz\n",
		v, *cells, *block, cfg.MatchCycles, cfg.Clock.Freq())

	srv, stopServe, err := profiling.Serve("queueprobe", *serveAddr, obs.Options{}, *linger, "session")
	if err != nil {
		fmt.Fprintln(os.Stderr, "queueprobe: -serve:", err)
		os.Exit(1)
	}
	defer stopServe()
	// The REPL is single-threaded, so the server never reads the device
	// directly: after each command settles, the counters are harvested
	// into a frozen snapshot the scrape handler serves from behind its
	// own lock.
	publish := func() {
		if srv == nil {
			return
		}
		reg := telemetry.NewRegistry()
		dev.Publish(reg, "alpu")
		srv.SetSnapshot(reg.Snapshot())
	}
	publish()

	var in *bufio.Scanner
	if *demo {
		in = bufio.NewScanner(strings.NewReader(demoScript))
	} else {
		in = bufio.NewScanner(os.Stdin)
	}
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if *demo {
			fmt.Println("> " + line)
		}
		if err := exec(eng, dev, line); err != nil {
			fmt.Fprintln(os.Stderr, "queueprobe:", err)
		}
		// Let the hardware settle, then print any responses.
		eng.Run()
		for {
			r, ok := dev.Results.Pop()
			if !ok {
				break
			}
			switch r.Kind {
			case alpu.RespStartAck:
				fmt.Printf("[%9v] %v: %d free\n", eng.Now(), r.Kind, r.Free)
			case alpu.RespMatchSuccess:
				fmt.Printf("[%9v] %v: tag=%d\n", eng.Now(), r.Kind, r.Tag)
			default:
				fmt.Printf("[%9v] %v\n", eng.Now(), r.Kind)
			}
		}
		publish()
	}
	profiling.MustWriteOutput("queueprobe", "-trace", *tracePath, tracer.WriteJSON)
	profiling.MustWriteOutput("queueprobe", "-metrics", *metricsOut, func(w io.Writer) error {
		reg := telemetry.NewRegistry()
		dev.Publish(reg, "alpu")
		return reg.Snapshot().WriteJSON(w)
	})
}

// field parses a decimal or the wildcard "*".
func field(s string) (int32, bool, error) {
	if s == "*" {
		return 0, true, nil
	}
	v, err := strconv.Atoi(s)
	return int32(v), false, err
}

func exec(eng *sim.Engine, dev *alpu.Device, line string) error {
	parts := strings.Fields(line)
	switch parts[0] {
	case "start":
		dev.PushCommand(alpu.Command{Op: alpu.OpStartInsert})
	case "stop":
		dev.PushCommand(alpu.Command{Op: alpu.OpStopInsert})
	case "reset":
		dev.PushCommand(alpu.Command{Op: alpu.OpReset})
	case "insert":
		if len(parts) != 5 {
			return fmt.Errorf("usage: insert <ctx> <src|*> <tag|*> <alputag>")
		}
		bits, mask, err := parseTriple(parts[1:4])
		if err != nil {
			return err
		}
		t, err := strconv.Atoi(parts[4])
		if err != nil {
			return err
		}
		dev.PushCommand(alpu.Command{Op: alpu.OpInsert, Bits: bits, Mask: mask, Tag: uint32(t)})
	case "probe":
		if len(parts) != 4 {
			return fmt.Errorf("usage: probe <ctx> <src|*> <tag|*>")
		}
		bits, mask, err := parseTriple(parts[1:4])
		if err != nil {
			return err
		}
		dev.PushProbe(alpu.Probe{Bits: bits, Mask: mask})
	case "occupancy":
		fmt.Printf("[%9v] occupancy: %d of %d\n", eng.Now(), dev.Occupancy(), dev.Config().Geometry.Cells)
	case "tags":
		fmt.Printf("[%9v] tags (oldest first): %v\n", eng.Now(), dev.Tags())
	case "stats":
		fmt.Printf("[%9v] %+v\n", eng.Now(), dev.Stats())
	default:
		return fmt.Errorf("unknown command %q", parts[0])
	}
	return nil
}

func parseTriple(f []string) (match.Bits, match.Bits, error) {
	ctx, ctxWild, err := field(f[0])
	if err != nil || ctxWild {
		return 0, 0, fmt.Errorf("context must be explicit (§II): %q", f[0])
	}
	src, srcWild, err := field(f[1])
	if err != nil {
		return 0, 0, err
	}
	tag, tagWild, err := field(f[2])
	if err != nil {
		return 0, 0, err
	}
	r := match.Recv{Context: uint16(ctx), Source: src, Tag: tag}
	if srcWild {
		r.Source = match.AnySource
	}
	if tagWild {
		r.Tag = match.AnyTag
	}
	b, m := match.PackRecv(r)
	return b, m, nil
}
