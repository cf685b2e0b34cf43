package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// options are one benchmark run's settings.
type options struct {
	workload string
	seed     int64
	trace    bool
	budget   time.Duration
	tiny     bool
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// report is the outcome of one benchmark run.
type report struct {
	attempted, failed int
	endToEnd          []metric
	perLayer          []metric
	// extra are printed for people only: the simulated makespan and the
	// failed share, which are constant for a given seed and input.
	extra []metric
	notes []string
	spans []span
	// samples[name] are the per-pass values behind a median, for the
	// spread lines.
	samples map[string][]float64
}

func (r *report) correct() bool { return r.failed == 0 && len(r.notes) == 0 }

// measure runs child processes until the budget is spent. Untraced
// children time passes and set-up; with tracing, every child after the
// first runs CPU-profiled passes instead. Each child is one process, so
// the heap the simulator's parked goroutines retain is freed between them.
func measure(opt options, runChild func(childArgs) (childResult, error)) report {
	rep := report{samples: map[string][]float64{}}
	start := time.Now()
	var results []childResult
	var childErrs int
	spans := []span{{ID: 0, Parent: -1, Name: "benchmark", StartNs: start.UnixNano()}}
	haveUntraced, haveTraced := false, !opt.trace
	for i := 0; ; i++ {
		traced := opt.trace && i > 0
		res, err := runChild(childArgs{Workload: opt.workload, Seed: opt.seed, Traced: traced, Tiny: opt.tiny})
		if err != nil {
			rep.notes = append(rep.notes, err.Error())
			childErrs++
		} else {
			results = append(results, res)
			spans = appendSpans(spans, res.Spans)
			rep.notes = append(rep.notes, res.Notes...)
		}
		haveUntraced = haveUntraced || !traced
		haveTraced = haveTraced || traced
		// Stop when another child would end nearer past the budget than
		// stopping now falls short of it, so a run lasts about the budget.
		avgChild := time.Since(start) / time.Duration(i+1)
		if time.Since(start)+avgChild/2 >= opt.budget && haveUntraced && haveTraced {
			break
		}
	}
	spans[0].EndNs = time.Now().UnixNano()
	rep.spans = spans

	var wall, tracedWall, setup, alloc, mps, worldMs, countWorldMs []float64
	folded := map[string]int64{}
	var c counts
	var makespan int64
	setupRanks := 0
	worldsPerChild := 1
	for i, res := range results {
		if i == 0 {
			c, makespan = res.Counts, res.Makespan
		} else if res.Counts != c || res.Makespan != makespan {
			rep.notes = append(rep.notes, "counters or makespan differ between child processes")
		}
		if res.SetupRanks > 0 { // traced children build no set-up worlds
			setupRanks = res.SetupRanks
		}
		worldsPerChild = res.WarmupWorlds * (1 + len(res.Passes))
		rep.attempted += res.WarmupWorlds
		rep.failed += res.WarmupFailed
		for k, n := range res.Folded {
			folded[k] += n
		}
		for _, p := range res.Passes {
			rep.attempted += p.Worlds
			rep.failed += p.Failed
			if p.Failed != 0 {
				continue
			}
			if p.Traced {
				tracedWall = append(tracedWall, float64(p.WallNs))
				continue
			}
			wall = append(wall, float64(p.WallNs))
			setup = append(setup, float64(p.SetupNs))
			alloc = append(alloc, float64(p.AllocB))
			mps = append(mps, float64(c.Matches)/(float64(p.WallNs)/1e9))
			for _, ns := range p.WorldNs {
				worldMs = append(worldMs, float64(ns)/1e6)
			}
		}
		for _, ns := range res.CountWorldNs {
			countWorldMs = append(countWorldMs, float64(ns)/1e6)
		}
	}
	// Tenancy passes hide their world boundaries; its count pass does not.
	if len(worldMs) == 0 {
		worldMs = countWorldMs
	}
	// A child that died ran no verifiable world: count what it would
	// have run as failed.
	rep.attempted += childErrs * worldsPerChild
	rep.failed += childErrs * worldsPerChild

	wallNs := median(wall)
	rep.samples["wall_s"] = scale(wall, 1e-9)
	rep.samples["setup_s"] = scale(setup, 1e-9)
	rep.samples["msgs_per_s"] = mps
	rep.samples["alloc_mb"] = scale(alloc, 1e-6)
	rep.endToEnd = []metric{
		{"wall_s", "s", wallNs / 1e9},
		{"setup_s", "s", median(setup) / 1e9},
		{"msgs_per_s", "1/s", median(mps)},
		{"alloc_mb", "MB", median(alloc) / 1e6},
	}
	failedFrac := 0.0
	if rep.attempted > 0 {
		failedFrac = float64(rep.failed) / float64(rep.attempted)
	}
	rep.extra = []metric{
		{"sim_makespan_us", "us", float64(makespan) / 1e3},
		{"failed_frac", "ratio", failedFrac},
	}

	share := func(k string) float64 { return ratio(float64(folded[k]), float64(folded[bucketTotal])) }
	layerNs := func(k string) float64 { return share(k) * wallNs }
	setupMs := median(setup) / 1e6
	rep.perLayer = []metric{
		{"sim.events", "count", float64(c.Events)},
		{"sim.host_ns_per_event", "ns", ratio(wallNs, float64(c.Events))},
		{"sim.host_share", "ratio", share("sim")},
		{"sim.handoff_share", "ratio", share(bucketHandoff)},
		{"sim.partition_share", "ratio", share(bucketPartition)},
		{"proc.host_share", "ratio", share("proc")},
		{"cache.accesses", "count", float64(c.CacheAccesses)},
		{"cache.hit_ratio", "ratio", ratio(float64(c.CacheHits), float64(c.CacheAccesses))},
		{"cache.host_share", "ratio", share("cache")},
		{"cache.host_ns_per_access", "ns", ratio(layerNs("cache"), float64(c.CacheAccesses))},
		{"nic.entries_traversed", "count", float64(c.Entries)},
		{"nic.entries_per_match", "ratio", ratio(float64(c.Entries), float64(c.Matches))},
		{"nic.host_share", "ratio", share("nic")},
		{"nic.host_ns_per_entry", "ns", ratio(wallNs, float64(c.Entries))},
		{"alpu.probes", "count", float64(c.ALPUProbes)},
		{"alpu.inserts", "count", float64(c.ALPUInserts)},
		{"alpu.hit_ratio", "ratio", ratio(float64(c.ALPUHits), float64(c.ALPUProbes))},
		{"alpu.shift_cycles", "count", float64(c.ALPUShift)},
		{"alpu.host_share", "ratio", share("alpu")},
		{"alpu.host_ns_per_probe", "ns", ratio(layerNs("alpu"), float64(c.ALPUProbes))},
		{"match.dispatch_lookups", "count", float64(c.DispatchHits + c.DispatchMisses)},
		{"match.dispatch_hit_ratio", "ratio", ratio(float64(c.DispatchHits), float64(c.DispatchHits+c.DispatchMisses))},
		{"match.overflow_churn", "count", float64(c.Promotions + c.Demotions)},
		{"match.host_share", "ratio", share("match")},
		{"network.packets", "count", float64(c.Packets)},
		{"network.goodput_ratio", "ratio", goodput(c)},
		{"network.host_share", "ratio", share("network")},
		{"mpi.msgs", "count", float64(c.Matches)},
		{"mpi.host_share", "ratio", share("mpi")},
		{"mpi.setup_ms_per_rank", "ms", ratio(setupMs, float64(setupRanks))},
		{"telemetry.host_share", "ratio", share("telemetry")},
		{"runtime.gc_share", "ratio", share(bucketGC)},
		{"sweep.world_ms_p50", "ms", quantile(worldMs, 0.5)},
		{"sweep.world_ms_p90", "ms", quantile(worldMs, 0.9)},
		{"trace.samples", "count", float64(folded[bucketTotal])},
		{"trace.overhead_s", "s", (median(tracedWall) - wallNs) / 1e9},
	}
	return rep
}

// appendSpans adds one child's spans under the benchmark's root span,
// renumbering them so identifiers stay unique across children.
func appendSpans(all, child []span) []span {
	off := len(all)
	for _, s := range child {
		s.ID += off
		if s.Parent < 0 {
			s.Parent = 0
		} else {
			s.Parent += off
		}
		all = append(all, s)
	}
	return all
}

// goodput is the share of data packets that were not retransmissions; 1
// when nothing was retransmitted.
func goodput(c counts) float64 {
	if c.Retransmits == 0 {
		return 1
	}
	return float64(c.DataSent) / float64(c.DataSent+c.Retransmits)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// buildCommit is the VCS revision the binary was built from, if known.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the run metadata and every metric for people, then the
// result object as the last line.
func (r *report) print(w io.Writer, opt options) {
	fmt.Fprintf(w, "meta: workload=%s seed=%d trace=%t go=%s nproc=%d gomaxprocs=%d commit=%s\n",
		opt.workload, opt.seed, opt.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), buildCommit())
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	shown := r.endToEnd
	if opt.trace {
		shown = r.perLayer
	}
	for _, m := range append(append([]metric(nil), shown...), r.extra...) {
		line := fmt.Sprintf("%-26s %14.6g %s", m.name, m.value, m.unit)
		if xs := r.samples[m.name]; len(xs) > 0 && !opt.trace {
			line += fmt.Sprintf("  (n=%d q1=%.6g q3=%.6g)", len(xs), quantile(xs, 0.25), quantile(xs, 0.75))
		}
		fmt.Fprintln(w, line)
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range shown {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintln(w, string(b))
}
