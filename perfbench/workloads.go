package main

import (
	"fmt"
	"math/rand"
	"time"

	"alpusim/internal/alpu"
	"alpusim/internal/bench"
	"alpusim/internal/mpi"
	"alpusim/internal/network"
	"alpusim/internal/nic"
	"alpusim/internal/sim"
	"alpusim/internal/workloads"
)

// workload is one named input set. A pass runs it once through the
// simulator's public entry points; a count pass runs the same worlds where
// the benchmark can see each one and read the counters its layers export.
type workload struct {
	name string
	// seeded is set when the seed changes the inputs; the sweeps are the
	// paper's fixed Fig. 5/6 grids and ignore it.
	seeded bool
	// passesPerChild bounds how many passes one child process runs. Every
	// drained world leaves its parked firmware goroutines behind, and they
	// keep the world reachable, so a process's heap grows with each pass.
	passesPerChild int
	pass           func(seed int64) outcome
	count          func(seed int64) (outcome, counts)
	// setup builds every world of one pass, plus the plan and fault model
	// it needs, without running an event; it returns the ranks built.
	setup func(seed int64) int
}

// outcome is what a pass computed: per-world simulated results the
// verifier compares, and what each world cost.
type outcome struct {
	// Values holds perWorld results for each world in run order.
	Values   []int64
	PerWorld int
	// Bad marks worlds that failed a check made inside the pass: a
	// tenancy row whose digest differs from the sw-list row, a protocol
	// error, a world that did not finish.
	Bad []bool
	// Makespan is the simulated finish time summed over the worlds (ns).
	Makespan int64
	// WorldNs is the host time of each world, where the benchmark sees
	// world boundaries.
	WorldNs []int64
}

func (o outcome) worlds() int { return len(o.Bad) }

// counts are the per-pass totals of the counters each layer exports.
type counts struct {
	Events         uint64 // sim: events executed over every engine
	CacheAccesses  uint64 // cache: NIC L1 lookups
	CacheHits      uint64
	Entries        uint64 // nic: software queue entries examined
	Matches        uint64 // nic: posted + unexpected matches (receives completed)
	ALPUProbes     uint64 // alpu: match requests processed
	ALPUHits       uint64
	ALPUInserts    uint64
	ALPUShift      uint64 // alpu: cycles in which compaction moved data
	DispatchHits   uint64 // match: fabric hot-entry dispatch cache
	DispatchMisses uint64
	Promotions     uint64 // match: fabric overflow promotions
	Demotions      uint64
	Packets        uint64 // network: packets transmitted
	DataSent       uint64 // network: go-back-N data packets
	Retransmits    uint64
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.CacheAccesses += o.CacheAccesses
	c.CacheHits += o.CacheHits
	c.Entries += o.Entries
	c.Matches += o.Matches
	c.ALPUProbes += o.ALPUProbes
	c.ALPUHits += o.ALPUHits
	c.ALPUInserts += o.ALPUInserts
	c.ALPUShift += o.ALPUShift
	c.DispatchHits += o.DispatchHits
	c.DispatchMisses += o.DispatchMisses
	c.Promotions += o.Promotions
	c.Demotions += o.Demotions
	c.Packets += o.Packets
	c.DataSent += o.DataSent
	c.Retransmits += o.Retransmits
}

// countWorld reads a drained world's counters.
func countWorld(w *mpi.World) counts {
	var c counts
	engines := w.Engines
	if len(engines) == 0 {
		engines = []*sim.Engine{w.Eng}
	}
	for _, e := range engines {
		c.Events += e.Executed()
	}
	fabric := false
	for i, n := range w.NICs {
		l1 := n.Mem().L1()
		c.CacheAccesses += l1.Accesses()
		c.CacheHits += l1.Hits()
		st := n.Stats()
		c.Entries += st.EntriesTraversed
		c.Matches += st.PostedMatches + st.UnexpMatches
		devs := []*alpu.Device{n.PostedALPU(), n.UnexpALPU()}
		for s := 0; s < n.MatchShardCount(); s++ {
			devs = append(devs, n.ShardALPU(s))
			fabric = true
		}
		for _, d := range devs {
			if d == nil {
				continue
			}
			ds := d.Stats()
			c.ALPUProbes += ds.Matches
			c.ALPUHits += ds.Hits
			c.ALPUInserts += ds.Inserts
			c.ALPUShift += ds.ShiftCycles
		}
		rel := n.Rel()
		c.DataSent += rel.DataSent
		c.Retransmits += rel.Retransmits
		c.Packets += w.Net.TxPackets(i)
	}
	if fabric {
		snap := w.TelemetrySnapshot()
		c.DispatchHits = snap.Counter("match_fabric/cache_hits")
		c.DispatchMisses = snap.Counter("match_fabric/cache_misses")
		c.Promotions = snap.Counter("match_fabric/overflow_promotions")
		c.Demotions = snap.Counter("match_fabric/overflow_demotions")
	}
	return c
}

// size scales the workloads: full is what the benchmark measures, tiny
// keeps the tests fast.
type size struct {
	postedMax, alpuMax          int
	unexpLens                   []int
	tenRanks, tenComms, tenMsgs int
	haloRanks, haloIters        int
}

var (
	fullSize = size{postedMax: 500, alpuMax: 250, unexpLens: append(steps(0, 255, 5), 256),
		tenRanks: 8, tenComms: 12, tenMsgs: 1536, haloRanks: 64, haloIters: 48}
	tinySize = size{postedMax: 50, alpuMax: 50, unexpLens: steps(0, 50, 25),
		tenRanks: 4, tenComms: 3, tenMsgs: 48, haloRanks: 8, haloIters: 8}
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"posted-sw", "alpu-resident", "tenancy-fabric", "halo-lossy"}

func lookupWorkload(name string, sz size) (*workload, error) {
	switch name {
	case "posted-sw":
		return postedSW(sz), nil
	case "alpu-resident":
		return alpuResident(sz), nil
	case "tenancy-fabric":
		return tenancyFabric(sz), nil
	case "halo-lossy":
		return haloLossy(sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func steps(lo, hi, step int) []int {
	var out []int
	for q := lo; q <= hi; q += step {
		out = append(out, q)
	}
	return out
}

// fig5Fracs are the traversal fractions of the Fig. 5 surface.
var fig5Fracs = []float64{0, 0.2, 0.4, 0.6, 0.8, 1}

// sweepWatch is the bench.WorldObserver state of the pass in progress.
// Sweeps run at Jobs 1, so the observer is called from one goroutine at a
// time, and the sweep's own completion orders it before the caller reads.
type sweepWatch struct {
	last     time.Time
	worldNs  []int64
	makespan int64
	counts   counts
	count    bool
}

func (s *sweepWatch) observe(w *mpi.World) {
	now := time.Now()
	s.worldNs = append(s.worldNs, now.Sub(s.last).Nanoseconds())
	s.makespan += int64(w.Eng.LastModel())
	if s.count {
		s.counts.add(countWorld(w))
	}
	s.last = time.Now()
}

// runSweep runs fn with the observer installed and folds the per-world
// simulated latencies into an outcome.
func runSweep(count bool, fn func() []sim.Time) (outcome, counts) {
	s := &sweepWatch{count: count, last: time.Now()}
	bench.WorldObserver = s.observe
	defer func() { bench.WorldObserver = nil }()
	lats := fn()
	o := outcome{PerWorld: 1, Bad: make([]bool, len(lats)), Makespan: s.makespan, WorldNs: s.worldNs}
	for _, l := range lats {
		o.Values = append(o.Values, int64(l))
	}
	if len(s.worldNs) != len(lats) {
		// A world the observer never saw was not drained normally.
		for i := range o.Bad {
			o.Bad[i] = true
		}
	}
	return o, s.counts
}

// sweepWorkload is a figure sweep of two-rank worlds on one NIC
// configuration; lats runs it and returns each world's latency.
func sweepWorkload(name string, nc nic.Config, passes int, lats func() []sim.Time) *workload {
	var worlds int
	return &workload{
		name:           name,
		passesPerChild: passes,
		pass:           func(int64) outcome { o, _ := runSweep(false, lats); return o },
		count: func(int64) (outcome, counts) {
			o, c := runSweep(true, lats)
			worlds = o.worlds()
			return o, c
		},
		setup: func(int64) int {
			for i := 0; i < worlds; i++ {
				mpi.NewWorld(mpi.Config{Ranks: 2, NIC: nc})
			}
			return 2 * worlds
		},
	}
}

func prepostedLats(cfg bench.PrepostedConfig) []sim.Time {
	var out []sim.Time
	for _, p := range bench.RunPreposted(cfg) {
		out = append(out, p.Latency)
	}
	return out
}

// postedSW is the Fig. 5 surface on the baseline NIC: every probe walks
// the software posted list through the firmware, proc charges and the
// memory hierarchy.
func postedSW(sz size) *workload {
	cfg := bench.PrepostedConfig{
		NIC:       bench.NICConfig(bench.Baseline),
		QueueLens: steps(0, sz.postedMax, 25),
		Fracs:     fig5Fracs,
		Jobs:      1,
	}
	return sweepWorkload("posted-sw", cfg.NIC, 4, func() []sim.Time { return prepostedLats(cfg) })
}

// alpuResident is the Fig. 5 surface and the Fig. 6 unexpected series on
// the alpu-256 NIC with every queue short enough to stay inside the unit.
func alpuResident(sz size) *workload {
	nc := bench.NICConfig(bench.ALPU256)
	pre := bench.PrepostedConfig{NIC: nc, QueueLens: steps(0, sz.alpuMax, 25), Fracs: fig5Fracs, Jobs: 1}
	unex := bench.UnexpectedConfig{NIC: nc, QueueLens: sz.unexpLens, Jobs: 1}
	return sweepWorkload("alpu-resident", nc, 3, func() []sim.Time {
		lats := prepostedLats(pre)
		for _, p := range bench.RunUnexpected(unex) {
			lats = append(lats, p.Latency)
		}
		return lats
	})
}

// tenancyRows are the matching configurations of the tenancy-fabric
// workload, in bench.RunTenancy row order.
func tenancyRows(cells int) []nic.Config {
	return []nic.Config{
		{},
		{UseALPU: true, Cells: cells},
		{UseALPU: true, Cells: cells, MatchShards: 4},
	}
}

// tenancyFabric is the Zipf heavy-tenancy plan on the sw-list, alpu-128
// and fabric-4 rows at one partition.
func tenancyFabric(sz size) *workload {
	params := func(seed int64) workloads.TenancyParams {
		return workloads.TenancyParams{Ranks: sz.tenRanks, Comms: sz.tenComms, Msgs: sz.tenMsgs, Seed: seed}
	}
	return &workload{
		name:           "tenancy-fabric",
		seeded:         true,
		passesPerChild: 4,
		pass: func(seed int64) outcome {
			p := params(seed)
			rows := bench.RunTenancy(bench.TenancyBenchConfig{
				Seed: seed, Ranks: p.Ranks, Comms: p.Comms, Msgs: p.Msgs,
				Shards: []int{4}, Jobs: 1, Partitions: 1,
			})
			o := outcome{PerWorld: 2}
			for _, r := range rows {
				o.Values = append(o.Values, int64(r.Digest), int64(r.Elapsed))
				o.Bad = append(o.Bad, !r.Match)
				o.Makespan += int64(r.Elapsed)
			}
			return o
		},
		count: func(seed int64) (outcome, counts) {
			p := params(seed)
			o := outcome{PerWorld: 2}
			var c counts
			var ref uint64
			for i, nc := range tenancyRows(128) {
				t0 := time.Now()
				digest, elapsed, ok, wc := tenancyReplica(nc, p, makeTenancyPlan(p))
				o.WorldNs = append(o.WorldNs, time.Since(t0).Nanoseconds())
				if i == 0 {
					ref = digest
				}
				o.Values = append(o.Values, int64(digest), int64(elapsed))
				o.Bad = append(o.Bad, !ok || digest != ref)
				o.Makespan += int64(elapsed)
				c.add(wc)
			}
			return o, c
		},
		setup: func(seed int64) int {
			p := params(seed)
			ranks := 0
			for _, nc := range tenancyRows(128) {
				makeTenancyPlan(p)
				mpi.NewWorld(mpi.Config{Ranks: p.Ranks, NIC: nc, Partitions: 1})
				ranks += p.Ranks
			}
			return ranks
		},
	}
}

// tenancyPlan mirrors the message schedule workloads.Tenancy draws from
// the seed. The count pass checks its digest and elapsed time against
// bench.RunTenancy's, so the copy cannot drift unnoticed.
type tenancyPlan struct {
	comm, src, size []int
	wild            []bool
	perSender       [][]int
}

func makeTenancyPlan(p workloads.TenancyParams) tenancyPlan {
	rng := rand.New(rand.NewSource(p.Seed))
	zc := rand.NewZipf(rng, 1.25, 1, uint64(p.Comms-1))
	zs := rand.NewZipf(rng, 1.25, 1, uint64(p.Ranks-2))
	pl := tenancyPlan{
		comm:      make([]int, p.Msgs),
		src:       make([]int, p.Msgs),
		size:      make([]int, p.Msgs),
		wild:      make([]bool, p.Msgs),
		perSender: make([][]int, p.Ranks),
	}
	for i := 0; i < p.Msgs; i++ {
		pl.comm[i] = int(zc.Uint64())
		pl.src[i] = 1 + int(zs.Uint64())
		if rng.Intn(2) == 0 {
			pl.size[i] = 64
		}
		pl.wild[i] = rng.Intn(8) == 0
		pl.perSender[pl.src[i]] = append(pl.perSender[pl.src[i]], i)
	}
	return pl
}

// tenancyReplica runs the tenancy rank program on a world the benchmark
// built itself, so it can read the world's counters afterwards.
func tenancyReplica(nc nic.Config, p workloads.TenancyParams, pl tenancyPlan) (digest uint64, elapsed sim.Time, ok bool, c counts) {
	w := mpi.NewWorld(mpi.Config{Ranks: p.Ranks, NIC: nc, Partitions: 1})
	statuses := make([]mpi.Status, p.Msgs)
	finished := make([]sim.Time, p.Ranks)
	done := make([]bool, p.Ranks)
	for id := 0; id < p.Ranks; id++ {
		w.SpawnRank(id, func(r *mpi.Rank) {
			world := r.Comm()
			comms := make([]*mpi.Comm, p.Comms)
			for c := range comms {
				comms[c] = world.Dup()
			}
			if r.Rank() == 0 {
				reqs := make([]*mpi.Request, p.Msgs)
				for i := 0; i < p.Msgs; i++ {
					src := pl.src[i]
					if pl.wild[i] {
						src = mpi.AnySource
					}
					reqs[i] = comms[pl.comm[i]].Irecv(src, i, pl.size[i])
				}
				world.Barrier()
				r.Waitall(reqs...)
				for i, req := range reqs {
					statuses[i] = req.Status()
				}
			} else {
				world.Barrier()
				var reqs []*mpi.Request
				for _, i := range pl.perSender[r.Rank()] {
					reqs = append(reqs, comms[pl.comm[i]].Isend(0, i, pl.size[i]))
				}
				r.Waitall(reqs...)
			}
			world.Barrier()
			finished[r.Rank()] = r.Now()
			done[r.Rank()] = true
		})
	}
	w.RunSim()
	ok = true
	for id, t := range finished {
		ok = ok && done[id]
		if t > elapsed {
			elapsed = t
		}
	}
	return workloads.TenancyDigest(statuses), elapsed, ok, countWorld(w)
}

// Halo sizing: 1 KiB messages, an Allreduce every 8 iterations, seeded
// drops and reorders on the wire, two partitions.
const (
	haloMsgSize     = 1024
	haloReduceEvery = 8
	haloFaults      = "drop=0.01,reorder=0.01"
	haloPartitions  = 2
	haloWatchdog    = 50 * sim.Millisecond
)

func haloFaultModel(seed int64) *network.FaultModel {
	fm, err := network.ParseFaults(haloFaults, seed)
	if err != nil {
		panic(err) // a constant spec
	}
	return fm
}

func haloConfig(sz size, seed int64) mpi.Config {
	return mpi.Config{
		Ranks: sz.haloRanks, NIC: nic.Config{}, Partitions: haloPartitions,
		Faults: haloFaultModel(seed), WatchdogLimit: haloWatchdog,
	}
}

// haloLossy is a 1-D halo exchange over a lossy wire: the network, the
// go-back-N recovery, collectives and the PDES barrier do the work.
func haloLossy(sz size) *workload {
	return &workload{
		name:           "halo-lossy",
		seeded:         true,
		passesPerChild: 4,
		pass: func(seed int64) outcome {
			t0 := time.Now()
			rep := workloads.Halo(nic.Config{}, sz.haloRanks, sz.haloIters, haloMsgSize, haloReduceEvery,
				workloads.WithFaults(haloFaultModel(seed)),
				workloads.WithPartitions(haloPartitions),
				workloads.WithWatchdog(haloWatchdog))
			return outcome{
				Values:   []int64{int64(rep.Elapsed), int64(rep.Retransmits), int64(rep.EntriesTraversed)},
				PerWorld: 3,
				Bad:      []bool{rep.ProtocolErrors != 0},
				Makespan: int64(rep.Elapsed),
				WorldNs:  []int64{time.Since(t0).Nanoseconds()},
			}
		},
		count: func(seed int64) (outcome, counts) {
			t0 := time.Now()
			w := mpi.NewWorld(haloConfig(sz, seed))
			finished := make([]sim.Time, sz.haloRanks)
			done := make([]bool, sz.haloRanks)
			for id := 0; id < sz.haloRanks; id++ {
				w.SpawnRank(id, func(r *mpi.Rank) {
					haloRank(r, sz.haloIters)
					finished[r.Rank()] = r.Now()
					done[r.Rank()] = true
				})
			}
			w.RunSim()
			var elapsed sim.Time
			ok := true
			var errs uint64
			for id, t := range finished {
				ok = ok && done[id]
				if t > elapsed {
					elapsed = t
				}
			}
			c := countWorld(w)
			for _, n := range w.NICs {
				errs += n.ErrorsTotal()
			}
			return outcome{
				Values:   []int64{int64(elapsed), int64(c.Retransmits), int64(c.Entries)},
				PerWorld: 3,
				Bad:      []bool{!ok || errs != 0},
				Makespan: int64(elapsed),
				WorldNs:  []int64{time.Since(t0).Nanoseconds()},
			}, c
		},
		setup: func(seed int64) int {
			mpi.NewWorld(haloConfig(sz, seed))
			return sz.haloRanks
		},
	}
}

// haloRank is the rank program of workloads.Halo.
func haloRank(r *mpi.Rank, iters int) {
	c := r.Comm()
	n := c.Size()
	left := (c.Rank() - 1 + n) % n
	right := (c.Rank() + 1) % n
	for it := 0; it < iters; it++ {
		c.Sendrecv(right, 10, haloMsgSize, left, 10, haloMsgSize)
		c.Sendrecv(left, 11, haloMsgSize, right, 11, haloMsgSize)
		r.Compute(2 * sim.Microsecond)
		if (it+1)%haloReduceEvery == 0 {
			c.Allreduce(8)
		}
	}
}
