package sim

import (
	"runtime"
	"testing"
	"time"
)

// runWithin runs ps.Run on its own goroutine and fails the test if it has
// not ended within the timeout. It reports whether Run returned, as
// opposed to ending its goroutine with runtime.Goexit.
func runWithin(t *testing.T, ps *PartitionSet, timeout time.Duration) (returned bool) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ps.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatal("PartitionSet.Run did not end")
	}
	return returned
}

// A process that calls runtime.Goexit (what t.Fatal does) ends Run's
// caller the same way whichever partition it runs on, and never leaves
// Run waiting for a worker that is gone.
func TestPartitionRunGoexit(t *testing.T) {
	for part := 0; part < 2; part++ {
		engines := []*Engine{NewEngine(), NewEngine()}
		for i, e := range engines {
			e.Spawn("worker", func(p *Process) {
				for k := 0; k < 4; k++ {
					p.Sleep(10 * Nanosecond)
				}
			})
			if i == part {
				e.Spawn("quitter", func(p *Process) {
					p.Sleep(15 * Nanosecond)
					runtime.Goexit()
				})
			}
		}
		ps := NewPartitionSet(engines, 100*Nanosecond)
		if runWithin(t, ps, 10*time.Second) {
			t.Errorf("partition %d: Run returned; want the Goexit to end its caller", part)
		}
	}
}

// When every engine drains, Run unwinds the processes still parked on a
// signal: their deferred calls run, they report Done, and no coroutine
// goroutine is left behind.
func TestPartitionRunReleasesParked(t *testing.T) {
	base := runtime.NumGoroutine()
	engines := []*Engine{NewEngine(), NewEngine()}
	unwound := 0
	for _, e := range engines {
		idle := NewSignal(e)
		for k := 0; k < 3; k++ {
			e.Spawn("idler", func(p *Process) {
				defer func() { unwound++ }()
				p.Sleep(Time(k+1) * Nanosecond)
				for {
					p.WaitSignal(idle)
				}
			})
		}
	}
	ps := NewPartitionSet(engines, 100*Nanosecond)
	if !runWithin(t, ps, 10*time.Second) {
		t.Fatal("Run did not return")
	}
	if unwound != 6 {
		t.Errorf("%d of 6 parked processes unwound", unwound)
	}
	for i, e := range engines {
		if n := e.ParkedProcs(); n != 0 {
			t.Errorf("engine %d: %d processes still parked", i, n)
		}
		for _, p := range e.procs {
			if !p.Done() {
				t.Errorf("engine %d: %s not done", i, p.Name())
			}
		}
	}
	waitGoroutines(t, base)
}

// waitGoroutines waits until the goroutine count is back to base. Workers
// and coroutines exit just after the call that ends them returns, so the
// count is polled, with a deadline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
