package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The run-ahead oracle. A Sleep whose wake is provably the next event
// executed skips the queue (Process.Sleep); the property pinned here is
// that nothing observable changes. Seeded multi-process programs run under
// Run, windowed RunUntil and windowed RunBefore, and must log exactly what the same program logs under bare Steps, where the
// horizon is zero and run-ahead never fires. Each loop is also checked
// against a reference copy of itself built from bare Steps, so the point
// where every loop call returns (Stop included) is pinned as well.

// raEntry is one logged observation: who acted, and the engine state the
// action saw.
type raEntry struct {
	who  string
	now  Time
	exec uint64
	last Time
}

// Process operations of a generated program.
const (
	raSleep = iota
	raWaitSignal
	raWaitCond
	raWaitAny
	raWaitUntil
	raRaise
	raTimer
	raCancel
	raSchedule
	raDeliver
	raStop
	raOps
)

type raOp struct {
	kind int
	d    Time
	a, b int // signal indexes
	k    int // condition target: this many raiser ticks from now
}

// raEvent is a plain event the program schedules before the run starts.
type raEvent struct {
	at   Time
	kind int // 0 log only, 1 raise signal a, 2 Stop
	a    int
}

type raProg struct {
	procs  [][]raOp
	events []raEvent
	nsig   int
	tick   Time // raiser chain period: bumps ticks and raises every signal
	poll   Time // SchedulePoll chain period (0: none)
	front  Time // AtPollFront chain period (0: none)
	window Time // RunUntil / RunBefore window width
}

func genRAProg(rng *rand.Rand) raProg {
	sleeps := []Time{0, 0, 1, 2, 3, 5, 8, 13}
	pr := raProg{
		nsig:   1 + rng.Intn(3),
		tick:   Time(4 + rng.Intn(12)),
		window: Time(1 + rng.Intn(20)),
	}
	if rng.Intn(2) == 0 {
		pr.poll = Time(3 + rng.Intn(10))
	}
	if rng.Intn(2) == 0 {
		pr.front = Time(3 + rng.Intn(10))
	}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		var ops []raOp
		for j, m := 0, 3+rng.Intn(20); j < m; j++ {
			op := raOp{
				kind: rng.Intn(raOps),
				d:    sleeps[rng.Intn(len(sleeps))],
				a:    rng.Intn(pr.nsig),
				b:    rng.Intn(pr.nsig),
				k:    rng.Intn(3),
			}
			// Weight toward Sleep: it is the operation under test.
			if rng.Intn(3) == 0 {
				op.kind = raSleep
			}
			ops = append(ops, op)
		}
		pr.procs = append(pr.procs, ops)
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		pr.events = append(pr.events, raEvent{
			at:   Time(rng.Intn(60)),
			kind: rng.Intn(3),
			a:    rng.Intn(pr.nsig),
		})
	}
	return pr
}

// raRun is one instantiation of a program on a fresh engine.
type raRun struct {
	e     *Engine
	sigs  []*Signal
	ticks int
	live  int
	stops bool // whether stop actions call Engine.Stop
	log   []raEntry
}

func (r *raRun) note(who string) {
	r.log = append(r.log, raEntry{who, r.e.Now(), r.e.Executed(), r.e.LastModel()})
}

func (r *raRun) stop() {
	if r.stops {
		r.e.Stop()
	}
}

// start spawns the program's processes and schedules its events and
// housekeeping chains. Every wait is bounded by the raiser chain, which
// runs while any process lives, so every run drains with every process
// returned.
func (r *raRun) start(pr raProg) {
	e := r.e
	for i := 0; i < pr.nsig; i++ {
		r.sigs = append(r.sigs, NewSignal(e))
	}
	for i, ops := range pr.procs {
		i, ops := i, ops
		r.live++
		e.Spawn(fmt.Sprint("p", i), func(p *Process) {
			defer func() { r.live-- }()
			var timers []EventID
			var dseq uint64
			for j, op := range ops {
				who := fmt.Sprintf("p%d.%d", i, j)
				target := r.ticks + op.k
				cond := func() bool { return r.ticks >= target }
				switch op.kind {
				case raSleep:
					p.Sleep(op.d)
				case raWaitSignal:
					p.WaitSignal(r.sigs[op.a])
				case raWaitCond:
					p.WaitCond(r.sigs[op.a], cond)
				case raWaitAny:
					p.WaitCondAny(r.sigs[op.a], r.sigs[op.b], cond)
				case raWaitUntil:
					who += fmt.Sprint(" ok=", p.WaitCondUntil(r.sigs[op.a], cond, op.d))
				case raRaise:
					r.sigs[op.a].Raise()
				case raTimer:
					timers = append(timers, e.ScheduleCancellable(op.d, func() { r.note(who + " timer") }))
				case raCancel:
					if len(timers) > 0 {
						who += fmt.Sprint(" cancel=", e.Cancel(timers[0]))
						timers = timers[1:]
					}
				case raSchedule:
					e.Schedule(op.d, func() { r.note(who + " event") })
				case raDeliver:
					dseq++
					e.AtDelivery(e.Now()+op.d, uint32(i), dseq, func() { r.note(who + " delivery") })
				case raStop:
					r.stop()
				}
				r.note(who)
			}
		})
	}
	for n, ev := range pr.events {
		ev, who := ev, fmt.Sprint("event", n)
		e.At(ev.at, func() {
			switch ev.kind {
			case 1:
				r.sigs[ev.a].Raise()
			case 2:
				r.stop()
			}
			r.note(who)
		})
	}
	var tick func()
	tick = func() {
		r.ticks++
		for _, s := range r.sigs {
			s.Raise()
		}
		r.note("tick")
		if r.live > 0 {
			e.Schedule(pr.tick, tick)
		}
	}
	e.Schedule(pr.tick, tick)
	if pr.poll > 0 {
		var poll func()
		poll = func() {
			r.note("poll")
			if e.Alive() > 0 {
				e.SchedulePoll(pr.poll, poll)
			}
		}
		e.SchedulePoll(pr.poll, poll)
	}
	if pr.front > 0 {
		var front func()
		front = func() {
			r.note("front")
			if e.Alive() > 0 {
				e.AtPollFront(e.Now()+pr.front, front)
			}
		}
		e.AtPollFront(pr.front, front)
	}
}

// Reference event loops: the Run, RunUntil and RunBefore bodies written
// with bare Steps. Outside any loop the run-ahead horizon is zero, so no
// Sleep inside them runs ahead.
func refRun(e *Engine) {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

func refRunUntil(e *Engine, t Time) {
	e.stopped = false
	for !e.stopped {
		at, ok := e.PeekTime()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

func refRunBefore(e *Engine, t Time) {
	e.stopped = false
	for !e.stopped {
		at, ok := e.PeekTime()
		if !ok || at >= t {
			return
		}
		e.Step()
	}
}

// raMode drives an engine to exhaustion through one kind of event loop,
// noting the engine state each time the loop returns.
type raMode struct {
	name string
	// stops: whether Stop takes effect. RunUntil after a Stop advances the
	// clock past the events the Stop left pending, so its windows run with
	// stop actions logged but inert.
	stops bool
	drive func(r *raRun, pr raProg, ref bool)
}

var raModes = []raMode{
	{"Run", true, func(r *raRun, _ raProg, ref bool) {
		for {
			if ref {
				refRun(r.e)
			} else {
				r.e.Run()
			}
			r.note("return")
			if r.e.Pending() == 0 {
				return
			}
		}
	}},
	{"RunUntil", false, func(r *raRun, pr raProg, ref bool) {
		for t := pr.window; r.e.Pending() > 0; t += pr.window {
			if ref {
				refRunUntil(r.e, t)
			} else {
				r.e.RunUntil(t)
			}
			r.note("return")
		}
	}},
	{"RunBefore", true, func(r *raRun, pr raProg, ref bool) {
		for t := pr.window; r.e.Pending() > 0; t += pr.window {
			if ref {
				refRunBefore(r.e, t)
			} else {
				r.e.RunBefore(t)
			}
			r.note("return")
		}
	}},
}

// actions drops the loop-return entries, keeping what the program saw.
func actions(log []raEntry) []raEntry {
	var out []raEntry
	for _, en := range log {
		if en.who != "return" {
			out = append(out, en)
		}
	}
	return out
}

func firstDiff(a, b []raEntry) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("entry %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}

func TestRunAheadOracle(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 30
	}
	for seed := 1; seed <= seeds; seed++ {
		pr := genRAProg(rand.New(rand.NewSource(int64(seed))))
		oracle := &raRun{e: NewEngine(), stops: true}
		oracle.start(pr)
		for oracle.e.Step() {
		}
		if oracle.live != 0 {
			t.Fatalf("seed %d: %d processes never returned", seed, oracle.live)
		}
		want := oracle.log
		for _, m := range raModes {
			var logs [2][]raEntry
			for i, ref := range []bool{false, true} {
				r := &raRun{e: NewEngine(), stops: m.stops}
				r.start(pr)
				m.drive(r, pr, ref)
				logs[i] = r.log
			}
			if !reflect.DeepEqual(logs[0], logs[1]) {
				t.Fatalf("seed %d %s: loop diverges from its bare-Step reference: %s",
					seed, m.name, firstDiff(logs[0], logs[1]))
			}
			if got := actions(logs[0]); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: actions diverge from the bare-Step oracle: %s",
					seed, m.name, firstDiff(got, want))
			}
		}
	}
}

// A loop that unwinds by panic still closes its run-ahead window: a bare
// Step afterwards resumes a sleeper for exactly one Sleep.
func TestRunAheadClosedAfterPanickingLoop(t *testing.T) {
	e := NewEngine()
	e.At(5, func() { panic("model failure") })
	e.Spawn("sleeper", func(p *Process) {
		for i := 0; i < 10; i++ {
			p.Sleep(1)
		}
	})
	func() {
		defer func() { recover() }()
		e.Run()
	}()
	if !e.Step() || e.Now() != 5 || e.Pending() != 1 {
		t.Fatalf("after one bare Step: now %v, %d pending; want 5 with the next wake pending",
			e.Now(), e.Pending())
	}
}

// The run-ahead path allocates nothing: a solo sleeper never parks, so
// the only engine work per Sleep is the bookkeeping.
func TestRunAheadSleepAllocsZero(t *testing.T) {
	e := NewEngine()
	quit := false
	e.Spawn("sleeper", func(p *Process) {
		for !quit {
			p.Sleep(Nanosecond)
		}
	})
	e.RunUntil(0)
	allocs := testing.AllocsPerRun(50, func() {
		e.RunUntil(e.Now() + 100*Nanosecond)
	})
	quit = true
	e.Run()
	if allocs != 0 {
		t.Errorf("%v allocations per 100 run-ahead Sleeps, want 0", allocs)
	}
}

// The park path allocates nothing either: wakes are event records, not
// closures, and signal waiter lists reuse their storage.
func TestRunAheadParkAllocsZero(t *testing.T) {
	e := NewEngine()
	ping, pong := NewSignal(e), NewSignal(e)
	quit := false
	e.Spawn("a", func(p *Process) {
		for !quit {
			ping.Raise()
			p.WaitSignal(pong)
		}
		ping.Raise()
	})
	e.Spawn("b", func(p *Process) {
		for !quit {
			p.WaitSignal(ping)
			pong.Raise()
			p.Sleep(Nanosecond)
		}
	})
	e.RunUntil(10 * Nanosecond)
	allocs := testing.AllocsPerRun(50, func() {
		e.RunUntil(e.Now() + 100*Nanosecond)
	})
	quit = true
	pong.Raise()
	e.Run()
	if allocs != 0 {
		t.Errorf("%v allocations per 100 ping-pong rounds, want 0", allocs)
	}
}
