package mpi

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A finished world leaves no goroutine behind: the NIC firmware and ALPU
// device loops never return, and a deadlocked rank never finishes, but
// every process still parked when the world drains is released. A
// deadlocked world still fails with the deadlock panic.
func TestDrainedWorldsReleaseProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	var deadlock string
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			cfg := alpuCfg(8, 128)
			cfg.Partitions = 1 + i%2
			Run(cfg, func(r *Rank) {
				n := r.Size()
				req := r.Isend((r.Rank()+1)%n, 1, 64)
				r.Recv((r.Rank()+n-1)%n, 1, 64)
				r.Wait(req)
			})
		}
		defer func() { deadlock = fmt.Sprint(recover()) }()
		cfg := alpuCfg(4, 128)
		cfg.Partitions = 2
		Run(cfg, func(r *Rank) {
			if r.Rank() == 3 {
				r.Recv(0, 9, 0) // never sent
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("worlds did not finish")
	}
	if !strings.Contains(deadlock, "deadlock — 1 ranks still blocked") {
		t.Errorf("deadlocked world: got %q, want the deadlock panic", deadlock)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the worlds finished, want at most %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
