package mpi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"alpusim/internal/network"
	"alpusim/internal/nic"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
)

// The whole-world step oracle. RunSim lets a rank process take its own
// wake in place when nothing else can happen first (run-ahead, see
// sim.Process.Sleep); a world stepped by bare Engine.Step calls never
// does. Serial worlds driven both ways must export identical bytes:
// trace JSON, metrics JSON, time series and causal report. Partitioned
// worlds are covered by the -par 1 vs -par 8 determinism tests.

// stepOracleOut is every exported byte stream of one drained world.
type stepOracleOut struct {
	trace, metrics, series, causal, extra string
}

// runStepOracle builds the world with every recorder attached, drives it
// with RunSim or with bare Steps plus RunSim's serial finalisation, and
// renders its outputs. extra renders program-level results.
func runStepOracle(t *testing.T, cfg Config, progs []Program, step bool, extra func() string) stepOracleOut {
	t.Helper()
	cfg.Tracer = telemetry.NewTracer()
	cfg.Causal = telemetry.NewCausal()
	cfg.Series = telemetry.NewSampler(0, 0)
	w := NewWorld(cfg)
	for i, prog := range progs {
		w.SpawnRank(i, prog)
	}
	if step {
		for w.Eng.Step() {
		}
		w.finalizeSeries()
	} else {
		w.RunSim()
	}
	if n := w.ranksLive.Load(); n != 0 {
		t.Fatalf("%d ranks still blocked when the event queue drained", n)
	}
	var out stepOracleOut
	var buf bytes.Buffer
	if err := telemetry.WriteTrace(&buf, cfg.Tracer); err != nil {
		t.Fatal(err)
	}
	out.trace = buf.String()
	buf.Reset()
	if err := w.TelemetrySnapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.metrics = buf.String()
	buf.Reset()
	if err := cfg.Series.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.series = buf.String()
	rep, ok := cfg.Causal.Analyze(5)
	if !ok {
		t.Fatal("no causal report")
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	out.causal = string(b)
	out.extra = fmt.Sprintf("end=%v executed=%d last=%v %s",
		w.Eng.Now(), w.Eng.Executed(), w.Eng.LastModel(), extra())
	return out
}

// stepOracleFig5 is one Fig. 5 point: rank 1 pre-posts q receives with
// the matching ones p deep, rank 0 probes them and waits for an ack.
func stepOracleFig5() (Config, []Program, func() string) {
	const q, p, iters = 48, 24, 4
	const matchBase, noMatch, ackBase = 1000, 5000, 9000
	var lat [iters]sim.Time
	progs := []Program{
		func(r *Rank) {
			acks := make([]*Request, iters)
			for k := range acks {
				acks[k] = r.Irecv(1, ackBase+k, 0)
			}
			r.Barrier()
			for k := 0; k < iters; k++ {
				start := r.Now()
				r.Send(1, matchBase+k, 64)
				r.Wait(acks[k])
				lat[k] = r.Now() - start
			}
		},
		func(r *Rank) {
			for i := 0; i < p; i++ {
				r.Irecv(0, noMatch+i, 0)
			}
			matches := make([]*Request, iters)
			for k := range matches {
				matches[k] = r.Irecv(0, matchBase+k, 64)
			}
			for i := p; i < q; i++ {
				r.Irecv(0, noMatch+i, 0)
			}
			r.Barrier()
			for k := range matches {
				r.Wait(matches[k])
				r.Send(0, ackBase+k, 0)
			}
		},
	}
	return Config{Ranks: 2}, progs, func() string { return fmt.Sprint(lat) }
}

// stepOracleTenancy is the heavy-tenancy plan on a 4-shard fabric: rank 0
// pre-posts one receive per message across several communicators, about
// one in eight of them MPI_ANY_SOURCE, and the senders fire a
// Zipf-skewed schedule.
func stepOracleTenancy() (Config, []Program, func() string) {
	const ranks, comms, msgs = 5, 3, 90
	rng := rand.New(rand.NewSource(1))
	zc := rand.NewZipf(rng, 1.25, 1, comms-1)
	zs := rand.NewZipf(rng, 1.25, 1, ranks-2)
	comm, src := make([]int, msgs), make([]int, msgs)
	wild := make([]bool, msgs)
	perSender := make([][]int, ranks)
	for i := 0; i < msgs; i++ {
		comm[i], src[i] = int(zc.Uint64()), 1+int(zs.Uint64())
		wild[i] = rng.Intn(8) == 0
		perSender[src[i]] = append(perSender[src[i]], i)
	}
	statuses := make([]Status, msgs)
	prog := func(r *Rank) {
		world := r.Comm()
		cs := make([]*Comm, comms)
		for c := range cs {
			cs[c] = world.Dup()
		}
		var reqs []*Request
		if r.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				s := src[i]
				if wild[i] {
					s = AnySource
				}
				reqs = append(reqs, cs[comm[i]].Irecv(s, i, 64))
			}
			world.Barrier()
			r.Waitall(reqs...)
			for i, req := range reqs {
				statuses[i] = req.Status()
			}
		} else {
			world.Barrier()
			for _, i := range perSender[r.Rank()] {
				reqs = append(reqs, cs[comm[i]].Isend(0, i, 64))
			}
			r.Waitall(reqs...)
		}
		world.Barrier()
	}
	progs := make([]Program, ranks)
	for i := range progs {
		progs[i] = prog
	}
	cfg := Config{Ranks: ranks, NIC: nic.Config{UseALPU: true, Cells: 16, MatchShards: 4}}
	return cfg, progs, func() string { return fmt.Sprint(statuses) }
}

// stepOracleHalo is a periodic 1-D halo exchange with Allreduce steps
// over a lossy, reordering wire, under a watchdog.
func stepOracleHalo() (Config, []Program, func() string) {
	const ranks, iters = 6, 6
	done := make([]sim.Time, ranks)
	prog := func(r *Rank) {
		c := r.Comm()
		left, right := (c.Rank()+ranks-1)%ranks, (c.Rank()+1)%ranks
		for it := 0; it < iters; it++ {
			c.Sendrecv(right, 10, 256, left, 10, 256)
			c.Sendrecv(left, 11, 256, right, 11, 256)
			r.Compute(2 * sim.Microsecond)
			if it%3 == 2 {
				c.Allreduce(8)
			}
		}
		done[r.Rank()] = r.Now()
	}
	progs := make([]Program, ranks)
	for i := range progs {
		progs[i] = prog
	}
	cfg := Config{
		Ranks:         ranks,
		Faults:        &network.FaultModel{Seed: 42, DropProb: 0.01, ReorderProb: 0.01},
		WatchdogLimit: 10 * sim.Millisecond,
	}
	return cfg, progs, func() string { return fmt.Sprint(done) }
}

func TestStepOracleWholeWorld(t *testing.T) {
	worlds := []struct {
		name  string
		build func() (Config, []Program, func() string)
	}{
		{"fig5-baseline", stepOracleFig5},
		{"tenancy-fabric4", stepOracleTenancy},
		{"halo-lossy", stepOracleHalo},
	}
	for _, wc := range worlds {
		t.Run(wc.name, func(t *testing.T) {
			var outs [2]stepOracleOut
			for i, step := range []bool{false, true} {
				cfg, progs, extra := wc.build()
				outs[i] = runStepOracle(t, cfg, progs, step, extra)
			}
			run, step := outs[0], outs[1]
			for _, c := range []struct{ what, a, b string }{
				{"trace JSON", run.trace, step.trace},
				{"metrics JSON", run.metrics, step.metrics},
				{"time series", run.series, step.series},
				{"causal report", run.causal, step.causal},
				{"program results", run.extra, step.extra},
			} {
				if c.a != c.b {
					t.Errorf("%s: RunSim and bare Steps disagree (%d vs %d bytes)",
						c.what, len(c.a), len(c.b))
				}
			}
		})
	}
}
