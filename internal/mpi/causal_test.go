package mpi

import (
	"strings"
	"testing"

	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
)

// pingPong is the stall program: two ranks trade messages forever, so
// the event loop never drains and an armed watchdog must expire.
func pingPong(r *Rank) {
	peer := 1 - r.Rank()
	for k := 0; ; k++ {
		if r.Rank() == 0 {
			r.Send(peer, k%64, 8)
			r.Recv(peer, k%64, 8)
		} else {
			r.Recv(peer, k%64, 8)
			r.Send(peer, k%64, 8)
		}
	}
}

// recoverWatchdog runs progs expecting a watchdog expiry and returns it.
func recoverWatchdog(t *testing.T, cfg Config, progs []Program) (werr *sim.WatchdogError) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a watchdog panic, got clean completion")
		}
		if pp, ok := r.(*sim.ProcessPanic); ok {
			werr, _ = pp.Value.(*sim.WatchdogError)
		} else {
			werr, _ = r.(*sim.WatchdogError)
		}
		if werr == nil {
			t.Fatalf("expected *sim.WatchdogError, got %v", r)
		}
	}()
	RunPrograms(cfg, progs)
	return nil
}

// A watchdog expiry on a world with a causal recorder names the slowest
// completed chain in its dump — the first thing to look at when a run
// hangs — at one partition and at several.
func TestWatchdogDumpNamesSlowestCausalChain(t *testing.T) {
	for _, parts := range []int{1, 2} {
		cfg := baseCfg(2)
		cfg.WatchdogLimit = 200 * sim.Microsecond
		cfg.Partitions = parts
		cfg.Causal = telemetry.NewCausal()
		werr := recoverWatchdog(t, cfg, []Program{pingPong, pingPong})
		if !strings.Contains(werr.Dump, "slowest causal chain: msg") {
			t.Errorf("par=%d: watchdog dump missing the causal chain line:\n%s",
				parts, werr.Dump)
		}
		// Only barrier injections poke the watchdog, so only a world whose
		// two ranks sit on different partitions logs a poke.
		if !strings.Contains(werr.Dump, "watchdog: last external progress poke") && parts > 1 {
			t.Errorf("par=%d: dump missing the last-poke line:\n%s",
				parts, werr.Dump)
		}
	}
}

// A drained world exposes its merged causal recorder: the analysis sees
// every exchanged message and its report passes the structural checks
// at any partition count, identically.
func TestWorldCausalReportPartitionInvariant(t *testing.T) {
	run := func(parts int) telemetry.CausalReport {
		cfg := baseCfg(2)
		cfg.Partitions = parts
		cfg.Causal = telemetry.NewCausal()
		w := RunPrograms(cfg, []Program{
			func(r *Rank) {
				for k := 0; k < 4; k++ {
					r.Send(1, k, 32)
				}
			},
			func(r *Rank) {
				for k := 0; k < 4; k++ {
					r.Recv(0, k, 32)
				}
			},
		})
		rep, ok := w.Causal.Analyze(2)
		if !ok {
			t.Fatalf("par=%d: no causal report", parts)
		}
		return rep
	}
	ref := run(1)
	if ref.Messages < 4 {
		t.Fatalf("causal recorder saw %d messages, want >= 4", ref.Messages)
	}
	pm := 0
	for _, b := range ref.Blame {
		pm += b.Permille
	}
	if pm != 1000 {
		t.Errorf("blame permille sums to %d", pm)
	}
	for _, parts := range []int{0, 2} {
		got := run(parts)
		if got.CriticalPath != ref.CriticalPath || got.Messages != ref.Messages {
			t.Errorf("par=%d report diverged: critpath %v/%v messages %d/%d",
				parts, got.CriticalPath, ref.CriticalPath, got.Messages, ref.Messages)
		}
	}
}
