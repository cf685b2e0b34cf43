package sim

import "testing"

// BenchmarkEngineScheduleStep measures the event-kernel hot path used by
// every simulated world: schedule one event, pop and execute it. The
// figure sweeps execute tens of millions of these, so per-event heap
// allocations and map traffic here dominate simulator wall-clock.
func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Nanosecond, fn)
		e.Step()
	}
}

// BenchmarkEngineScheduleStepDepth8 keeps eight events in flight so the
// heap sift work is representative of a busy NIC world rather than the
// single-element degenerate case.
func BenchmarkEngineScheduleStepDepth8(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 8; i++ {
		e.Schedule(Time(i)*Nanosecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(8*Nanosecond, fn)
		e.Step()
	}
}

// BenchmarkEngineCancellable measures the cancellable schedule/cancel
// cycle, the only path that needs the byID map.
func BenchmarkEngineCancellable(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.ScheduleCancellable(Nanosecond, fn)
		e.Cancel(id)
	}
}

// BenchmarkQueueMicro runs the event-queue kernel micro set (plus the
// partition-window overhead) — the same cases the
// alpusim bench harness folds into BENCH.json.
func BenchmarkQueueMicro(b *testing.B) {
	for _, c := range QueueMicroCases() {
		b.Run(c.Name, c.Bench)
	}
}

// BenchmarkProcessSleep measures one co-simulated process sleeping in a
// loop with nothing else scheduled: every wake is the next event, so each
// Sleep takes the run-ahead path and never parks.
func BenchmarkProcessSleep(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Spawn("sleeper", func(p *Process) {
		for i := 0; i < n; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcessPingPong measures the park path: two processes take
// turns through a pair of Signals, so every operation is one wake event
// and a coroutine switch there and back.
func BenchmarkProcessPingPong(b *testing.B) {
	e := NewEngine()
	ping, pong := NewSignal(e), NewSignal(e)
	n := b.N
	e.Spawn("ping", func(p *Process) {
		for i := 0; i < n; i++ {
			ping.Raise()
			p.WaitSignal(pong)
		}
	})
	e.Spawn("pong", func(p *Process) {
		for i := 0; i < n; i++ {
			p.WaitSignal(ping)
			pong.Raise()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcessSpawn measures a process's whole life: Spawn (which
// creates its coroutine), a run until it parks at its idle point with the
// engine drained, and its release — the per-process cost every world pays
// in setup and teardown.
func BenchmarkProcessSpawn(b *testing.B) {
	e := NewEngine()
	idle := NewSignal(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Spawn("idler", func(p *Process) { p.WaitSignal(idle) })
		e.Run()
		e.release()
		e.procs = e.procs[:0]
		idle.waiters = idle.waiters[:0]
	}
}
