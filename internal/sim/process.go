package sim

import (
	"fmt"
	"runtime/debug"
)

// ProcessPanic is the value re-raised on the engine goroutine when a
// co-simulated process panics. Without this hand-off the panic would unwind
// a bare goroutine and abort the whole program — with it, the panic
// propagates out of Engine.Run on the caller's goroutine, where a sweep
// worker (internal/sweep) can recover it and fail just that world.
type ProcessPanic struct {
	Proc  string // name of the process that panicked
	Value any    // the original panic value
	Stack []byte // stack of the panicking process goroutine
}

func (pp *ProcessPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n%s", pp.Proc, pp.Value, pp.Stack)
}

// Process is a co-simulated thread of control: a plain Go function that
// consumes simulated time through Sleep/WaitSignal calls. The paper's NIC
// firmware loop and the MPI application ranks both run as Processes, which
// lets them be written as straight-line code instead of hand-built state
// machines while staying deterministic.
//
// The handshake guarantees that exactly one of {engine, one process} runs at
// any instant: when the engine resumes a process it blocks on the process's
// yield channel until the process parks again (in Sleep or WaitSignal) or
// returns.
type Process struct {
	eng    *Engine
	name   string
	resume chan struct{}
	yield  chan struct{}
	done   bool
	parked bool   // true while suspended awaiting a wake event
	gen    uint64 // increments on every wake; stale wake events are dropped
}

// Spawn starts fn as a co-simulated process at the current simulated time.
func (e *Engine) Spawn(name string, fn func(p *Process)) *Process {
	p := &Process{
		eng:    e,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
		parked: true,
	}
	e.procs = append(e.procs, p)
	go func() {
		<-p.resume
		// The final yield runs via defer so that the engine is released
		// even if fn unwinds via runtime.Goexit (e.g. t.Fatal inside a
		// test-driver process). A panic is captured here and re-raised on
		// the engine goroutine (see ProcessPanic); recover returns nil for
		// Goexit, preserving the old behaviour for that path.
		defer func() {
			if r := recover(); r != nil {
				p.eng.procFailure = &ProcessPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
			}
			p.done = true
			p.yield <- struct{}{}
		}()
		fn(p)
	}()
	e.wake(e.now, p, p.gen)
	return p
}

// run hands control to the process and waits for it to park or finish.
// It must only be called from an engine event: the wake event of the park
// with generation gen. If the process has been woken by some other event
// in the meantime (its generation advanced), the wake is stale and is
// dropped — a process may be the target of both a timer and a signal
// broadcast.
func (p *Process) run(gen uint64) {
	if p.done || !p.parked || p.gen != gen {
		return // stale wake
	}
	p.parked = false
	p.gen++
	p.resume <- struct{}{}
	<-p.yield
	if f := p.eng.procFailure; f != nil {
		p.eng.procFailure = nil
		panic(f)
	}
}

// park suspends the process until some engine event calls run again.
// It must only be called from inside the process goroutine.
func (p *Process) park() {
	p.parked = true
	p.yield <- struct{}{}
	<-p.resume
}

// Name returns the name given at Spawn.
func (p *Process) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.Now() }

// Done reports whether the process function has returned.
func (p *Process) Done() bool { return p.done }

// Sleep advances the process's local time by d, yielding to the simulation
// when anything else can happen first. When the wake at Now()+d would be
// the very next event the running loop executes — strictly earlier than
// every pending event, inside the loop's horizon, no Stop requested — the
// process takes it in place (exact run-ahead): the clock and the engine
// counters advance exactly as if the wake had been scheduled, popped and
// run, without the park and the two goroutine handoffs. Sleep(0)
// therefore yields only when another event is already due at the current
// instant (events scheduled earlier at the same instant run first); with
// nothing else due now it returns at once.
func (p *Process) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: negative sleep %v", p.name, d))
	}
	e := p.eng
	w := e.now + d
	if e.runAhead(w) {
		// The bookkeeping of push, Step and run for the skipped wake.
		e.seq++
		e.now, e.lastModel = w, w
		e.executed++
		p.gen++
		return
	}
	p.parked = true
	e.wake(w, p, p.gen)
	p.yield <- struct{}{}
	<-p.resume
}

// WaitSignal parks the process until s is raised. If s is already raised the
// process consumes the signal level semantics described on Signal and
// continues without yielding.
func (p *Process) WaitSignal(s *Signal) {
	for !s.TestClear() {
		s.addWaiter(p)
		p.park()
	}
}

// WaitCond parks the process, re-testing cond each time s is raised, until
// cond is true. cond is also tested immediately.
func (p *Process) WaitCond(s *Signal, cond func() bool) {
	for !cond() {
		s.addWaiter(p)
		p.park()
	}
}

// WaitCondAny parks the process, re-testing cond each time either signal
// is raised, until cond is true. cond is also tested immediately. The
// process joins both waiter lists; whichever Raise comes first wakes it,
// and the other signal's wake is dropped by the generation guard.
func (p *Process) WaitCondAny(s1, s2 *Signal, cond func() bool) {
	for !cond() {
		s1.addWaiter(p)
		s2.addWaiter(p)
		p.park()
	}
}

// WaitCondUntil behaves like WaitCond but gives up after d simulated time.
// It reports whether cond held (true) or the deadline expired first (false).
// cond is tested immediately; a zero or negative d degenerates to that
// single test. The deadline timer is cancellable, so a satisfied wait leaves
// no stray event behind — the world can still drain to quiescence.
func (p *Process) WaitCondUntil(s *Signal, cond func() bool, d Time) bool {
	if cond() {
		return true
	}
	if d <= 0 {
		return false
	}
	deadline := p.Now() + d
	expired := false
	id := p.eng.ScheduleCancellable(d, func() {
		expired = true
		s.Raise()
	})
	for !cond() {
		if expired || p.Now() >= deadline {
			return false
		}
		s.addWaiter(p)
		p.park()
	}
	if !expired {
		p.eng.Cancel(id)
	}
	return true
}

// Signal is a wakeup flag processes can block on. Raise stores a level (so a
// Raise with no waiter is not lost) and wakes all current waiters at the
// same simulated instant. It is the moral equivalent of the "FIFO became
// non-empty" wires between the paper's hardware units.
type Signal struct {
	eng     *Engine
	raised  bool
	waiters []waiter
}

// waiter is one listing on a Signal: the process and the generation of
// the park it listed for. A listing outlives its park when the process
// was woken some other way (through the other signal of WaitCondAny); the
// generation turns the Raise that finds it into a stale, dropped wake.
type waiter struct {
	p   *Process
	gen uint64
}

// NewSignal returns a lowered signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Raise sets the signal level and schedules every waiting process to resume
// at the current instant.
func (s *Signal) Raise() {
	s.raised = true
	for _, w := range s.waiters {
		s.eng.wake(s.eng.now, w.p, w.gen)
	}
	s.waiters = s.waiters[:0]
}

// TestClear reports whether the signal was raised, clearing it.
func (s *Signal) TestClear() bool {
	r := s.raised
	s.raised = false
	return r
}

func (s *Signal) addWaiter(p *Process) { s.waiters = append(s.waiters, waiter{p, p.gen}) }
