package sim

import (
	"strings"
	"testing"
)

// A world that drains before the deadline must not trip the watchdog, and
// the watchdog must not keep the event loop alive after the drain.
func TestWatchdogQuietOnCleanFinish(t *testing.T) {
	eng := NewEngine()
	w := NewWatchdog(eng, 1000*Nanosecond, 10*Nanosecond)
	ran := false
	eng.Schedule(50*Nanosecond, func() { ran = true })
	eng.Run()
	if !ran {
		t.Fatal("payload event did not run")
	}
	if w.Fired() {
		t.Fatal("watchdog fired on a clean finish")
	}
	if eng.Pending() != 0 {
		t.Fatalf("watchdog left %d events pending after drain", eng.Pending())
	}
}

// A livelocked world (an event chain that never ends) must be failed with
// a diagnostic dump once simulated time passes the limit.
func TestWatchdogFailsLivelock(t *testing.T) {
	eng := NewEngine()
	w := NewWatchdog(eng, 500*Nanosecond, 50*Nanosecond)
	var caught *WatchdogError
	w.OnFail = func(err *WatchdogError) {
		caught = err
		eng.Stop()
	}
	eng.Spawn("spinner", func(p *Process) {
		for {
			p.Sleep(10 * Nanosecond)
		}
	})
	eng.Run()
	if caught == nil {
		t.Fatal("watchdog did not fire on a livelocked world")
	}
	if !strings.Contains(caught.Dump, "spinner") {
		t.Errorf("dump does not name the live process:\n%s", caught.Dump)
	}
	if !strings.Contains(caught.Error(), "watchdog expired") {
		t.Errorf("unexpected error text: %v", caught)
	}
}

// The default OnFail panics with *WatchdogError so sweeps can recover it.
func TestWatchdogDefaultPanics(t *testing.T) {
	eng := NewEngine()
	NewWatchdog(eng, 100*Nanosecond, 25*Nanosecond)
	eng.Spawn("spinner", func(p *Process) {
		for {
			p.Sleep(10 * Nanosecond)
		}
	})
	defer func() {
		r := recover()
		pp, ok := r.(*ProcessPanic)
		if ok {
			// The panic unwound through the process coroutine.
			if _, ok := pp.Value.(*WatchdogError); ok {
				return
			}
		}
		if _, ok := r.(*WatchdogError); ok {
			return
		}
		t.Fatalf("expected *WatchdogError panic, got %v", r)
	}()
	eng.Run()
}

// The diagnostic dump includes the model-supplied context.
func TestWatchdogDiagHook(t *testing.T) {
	eng := NewEngine()
	w := NewWatchdog(eng, 100*Nanosecond, 0) // 0 interval -> limit/8
	w.Diag = func() string { return "retransmits=7" }
	var caught *WatchdogError
	w.OnFail = func(err *WatchdogError) {
		caught = err
		eng.Stop()
	}
	eng.Spawn("spinner", func(p *Process) {
		for {
			p.Sleep(Nanosecond)
		}
	})
	eng.Run()
	if caught == nil || !strings.Contains(caught.Dump, "retransmits=7") {
		t.Fatalf("diag hook output missing from dump: %v", caught)
	}
}
