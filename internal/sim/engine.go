package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// EventID identifies a cancellable scheduled event (see ScheduleCancellable).
type EventID uint64

// maxTime is the largest representable timestamp; the partition runner uses
// it as the "no event pending" sentinel.
const maxTime = Time(math.MaxInt64)

// Event ordering is a composite key (at, k1, k2). Ordinary events carry
// k1 = 0 and k2 = schedule sequence, which reproduces the classic
// "same-instant events fire in schedule order" rule exactly. Cross-rank
// delivery events (AtDelivery) carry k1 = deliveryClass | source endpoint
// and k2 = the per-source delivery sequence, so that at any instant:
//
//   - all ordinary local events fire before any network delivery, and
//   - concurrent deliveries fire in (source, per-source sequence) order,
//
// neither of which depends on how the world is partitioned. This canonical
// tie-break is what keeps partitioned runs byte-identical at any -par N.
const deliveryClass = uint64(1) << 32

type event struct {
	at   Time
	k1   uint64   // 0 for ordinary events; deliveryClass|src for deliveries
	k2   uint64   // schedule seq (ordinary) or per-source delivery seq
	fn   func()   // nil for process wakes and for cancelled ladder events
	proc *Process // non-nil for a process wake: resume proc at park gen
	gen  uint64
	id   EventID // non-zero only for cancellable events
	idx  int     // index in heap, -1 when popped or cancelled
	poll bool    // housekeeping observer, excluded from LastModel
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	return a.k2 < b.k2
}

type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

// arenaBlock is how many event objects one arena allocation holds. Blocks
// feed the free list in bulk, so event allocation never goes through the
// allocator one object at a time even on cold queues.
const arenaBlock = 256

// Engine is the discrete event simulation kernel. It is not safe for
// concurrent use; co-simulated processes (see Process) hand control back and
// forth so that exactly one goroutine touches the Engine at a time. Distinct
// Engines are fully independent, so whole worlds may run on parallel
// goroutines (see internal/sweep) and a single world may be split across
// per-partition engines (see PartitionSet).
//
// Two event-queue kernels are available behind the same API: the
// container/heap queue (NewEngine — the reference oracle) and the ladder
// queue (NewLadderEngine — O(1) amortized, for event-dense large worlds).
// Both order events by the same composite key, so they are interchangeable
// bit for bit; TestLadderMatchesHeap pins that equivalence.
//
// A process wake is an event record carrying (process, park generation)
// rather than a closure, so parking allocates nothing; and a Sleep whose
// wake would provably be the next event executed skips the queue and the
// goroutine handoff altogether (exact run-ahead, see Process.Sleep).
type Engine struct {
	now     Time
	events  eventHeap
	ladder  *ladderQueue // non-nil selects the ladder kernel
	seq     uint64
	nextID  EventID
	byID    map[EventID]*event // lazily allocated; cancellable events only
	free    []*event           // recycled event objects (hot-path fast path)
	arena   []event            // current arena block feeding the free path
	stopped bool

	// horizon is the exclusive bound on run-ahead wakes set by the running
	// loop: maxTime under Run, t+1 under RunUntil(t), t under RunBefore(t),
	// and 0 outside any loop, so a bare Step never runs ahead.
	horizon Time

	// procFailure holds a panic captured from a co-simulated process
	// goroutine, re-raised on the engine goroutine by Process.run.
	procFailure *ProcessPanic

	// Stats.
	executed uint64

	// pollers counts pending housekeeping events scheduled with
	// SchedulePoll — watchdog checks, telemetry samplers. They are
	// excluded from Alive so that pollers watching each other cannot keep
	// a drained world running forever.
	pollers int

	// lastModel is the timestamp of the latest executed event that models
	// the world (every event except poll-class housekeeping). It is a pure
	// function of the modelled event set, so it is identical for the same
	// world at any partitioning — the property the time-series sampler
	// relies on to pad every shard to the same canonical sample count.
	lastModel Time

	procs []*Process
}

// NewEngine returns an empty simulation at time zero, using the
// container/heap event queue (the reference kernel).
func NewEngine() *Engine {
	return &Engine{}
}

// NewLadderEngine returns an empty simulation at time zero, using the
// ladder event queue. Event ordering is identical to NewEngine; only the
// asymptotics differ (amortized O(1) enqueue/dequeue vs O(log n)).
func NewLadderEngine() *Engine {
	e := &Engine{}
	e.ladder = &ladderQueue{recycle: e.recycle}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// alloc takes an event object off the free list, refilling it from the
// arena when empty.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.arena) == 0 {
		e.arena = make([]event, arenaBlock)
	}
	ev := &e.arena[0]
	e.arena = e.arena[1:]
	return ev
}

// push stamps a fresh ordinary event and inserts it into the queue.
func (e *Engine) push(t Time, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", t, e.now))
	}
	ev := e.alloc()
	e.seq++
	ev.at, ev.k1, ev.k2, ev.fn, ev.id, ev.poll = t, 0, e.seq, fn, 0, false
	if e.ladder != nil {
		e.ladder.push(ev)
	} else {
		heap.Push(&e.events, ev)
	}
	return ev
}

// wake schedules the resume of p at t, valid only while p is still in the
// park of generation gen.
func (e *Engine) wake(t Time, p *Process, gen uint64) {
	ev := e.push(t, nil)
	ev.proc, ev.gen = p, gen
}

// recycle returns a popped or cancelled event object to the free list.
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.proc = nil, nil
	e.free = append(e.free, ev)
}

// runAhead reports whether an ordinary event scheduled now at w would be
// the next event the running loop executes: strictly before every pending
// event (so it would be the queue's unique minimum whatever its tie-break
// key), inside the loop's horizon, and with no Stop requested. An
// overflowed w (below now) is left to push, which rejects it.
func (e *Engine) runAhead(w Time) bool {
	if w >= e.horizon || w < e.now || e.stopped {
		return false
	}
	at, ok := e.PeekTime()
	return !ok || w < at
}

// Schedule runs fn after delay d. A negative delay is an error in the model,
// so it panics rather than silently reordering time. The event cannot be
// cancelled — this is the allocation-free hot path; use ScheduleCancellable
// for timeouts and other maybe-revoked work.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at %v", d, e.now))
	}
	e.push(e.now+d, fn)
}

// At runs fn at absolute time t (>= Now). Like Schedule, the event cannot
// be cancelled.
func (e *Engine) At(t Time, fn func()) {
	e.push(t, fn)
}

// AtDelivery schedules a cross-rank packet delivery at absolute time t.
// Deliveries order canonically by (t, src, dseq) after every ordinary event
// at the same instant, regardless of when or from which partition they were
// scheduled — see the deliveryClass comment. src is the sending endpoint,
// dseq its per-source delivery sequence (strictly increasing at the sender).
func (e *Engine) AtDelivery(t Time, src uint32, dseq uint64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: delivery into the past: %v < %v", t, e.now))
	}
	ev := e.alloc()
	ev.at, ev.k1, ev.k2, ev.fn, ev.id, ev.poll = t, deliveryClass|uint64(src), dseq, fn, 0, false
	if e.ladder != nil {
		e.ladder.push(ev)
	} else {
		heap.Push(&e.events, ev)
	}
}

// ScheduleCancellable is Schedule for events that may later be revoked with
// Cancel. It registers the event in the id table, which the plain
// Schedule/At fast path skips entirely.
func (e *Engine) ScheduleCancellable(d Time, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at %v", d, e.now))
	}
	return e.AtCancellable(e.now+d, fn)
}

// AtCancellable is At for events that may later be revoked with Cancel.
func (e *Engine) AtCancellable(t Time, fn func()) EventID {
	ev := e.push(t, fn)
	e.nextID++
	ev.id = e.nextID
	if e.byID == nil {
		e.byID = make(map[EventID]*event)
	}
	e.byID[ev.id] = ev
	return ev.id
}

// Cancel removes a pending cancellable event. Cancelling an event that
// already fired or was already cancelled is a no-op and reports false.
// The heap kernel removes the event physically; the ladder kernel marks it
// dead in place and reclaims it lazily when its timestamp is reached.
func (e *Engine) Cancel(id EventID) bool {
	ev, ok := e.byID[id]
	if !ok {
		return false
	}
	delete(e.byID, id)
	if e.ladder != nil {
		ev.fn = nil
		ev.id = 0
		e.ladder.live--
		return true
	}
	if ev.idx >= 0 {
		heap.Remove(&e.events, ev.idx)
	}
	e.recycle(ev)
	return true
}

// Pending reports the number of scheduled (live) events.
func (e *Engine) Pending() int {
	if e.ladder != nil {
		return e.ladder.live
	}
	return len(e.events)
}

// PeekTime reports the timestamp of the earliest pending event, or ok=false
// when the queue is empty. It does not advance the clock.
func (e *Engine) PeekTime() (Time, bool) {
	if e.ladder != nil {
		return e.ladder.peek()
	}
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// ParkedProcs reports how many co-simulated processes are suspended
// waiting for a wake event. The partition runner uses it to tell an inert
// partition (drained, every rank exited) from a merely quiet one whose
// parked ranks an injected delivery could still wake into sending.
func (e *Engine) ParkedProcs() int {
	n := 0
	for _, p := range e.procs {
		if p.parked && !p.done {
			n++
		}
	}
	return n
}

// SchedulePoll is Schedule for self-re-arming housekeeping events that
// observe the world rather than model it. Pollers must re-arm only while
// Alive() > 0; the bookkeeping lives in the wrapper closure, so the
// Step/Schedule hot path is untouched.
func (e *Engine) SchedulePoll(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at %v", d, e.now))
	}
	e.pollers++
	ev := e.push(e.now+d, func() {
		e.pollers--
		fn()
	})
	ev.poll = true
}

// AtPollFront schedules a front-class poll at absolute time t (>= Now): it
// carries the zero tie-break key (k1 = 0, k2 = 0), sorting before every
// ordinary event (k2 >= 1) and every delivery (k1 >= deliveryClass) at the
// same instant, in both event kernels. A front poll therefore observes the
// world exactly as left by the events strictly before t — a state that does
// not depend on how the world is partitioned. At most one front poll may be
// pending per engine at any one instant (two would tie ambiguously); the
// time-series sampler, its only client, re-arms a single chain of them.
// Front polls are housekeeping: counted in pollers, excluded from Alive and
// from LastModel.
func (e *Engine) AtPollFront(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: front poll into the past: %v < %v", t, e.now))
	}
	ev := e.alloc()
	e.pollers++
	ev.at, ev.k1, ev.k2, ev.id, ev.poll = t, 0, 0, 0, true
	ev.fn = func() {
		e.pollers--
		fn()
	}
	if e.ladder != nil {
		e.ladder.push(ev)
	} else {
		heap.Push(&e.events, ev)
	}
}

// LastModel reports the timestamp of the latest executed modelled event
// (polls excluded). For one world split across per-partition engines, the
// maximum of LastModel over the engines is the world's end-of-model time,
// identical at any -par N.
func (e *Engine) LastModel() Time { return e.lastModel }

// Alive reports the pending events that represent modelled work —
// Pending minus outstanding pollers. When it reaches zero nothing can
// ever happen again in the world, no matter how long pollers poll.
func (e *Engine) Alive() int { return e.Pending() - e.pollers }

// Step executes the single earliest event. It reports false when no events
// remain.
func (e *Engine) Step() bool {
	var ev *event
	if e.ladder != nil {
		ev = e.ladder.pop()
		if ev == nil {
			return false
		}
	} else {
		if len(e.events) == 0 {
			return false
		}
		ev = heap.Pop(&e.events).(*event)
	}
	if ev.id != 0 {
		delete(e.byID, ev.id)
	}
	if ev.at < e.now {
		panic("sim: event queue corrupted")
	}
	e.now = ev.at
	if !ev.poll {
		e.lastModel = ev.at
	}
	e.executed++
	// Recycle before running the body: it may schedule new events, which
	// can legitimately reuse this object, while the locals stay valid.
	fn, p, gen := ev.fn, ev.proc, ev.gen
	e.recycle(ev)
	if p != nil {
		p.run(gen)
	} else {
		fn()
	}
	return true
}

// endLoop closes the run-ahead window when an event loop returns, so a
// Step outside any loop never runs ahead.
func (e *Engine) endLoop() { e.horizon = 0 }

// Run executes events until none remain or Stop is called.
func (e *Engine) Run() {
	e.stopped, e.horizon = false, maxTime
	defer e.endLoop()
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t
// (if the simulation had not already advanced past it).
func (e *Engine) RunUntil(t Time) {
	e.stopped, e.horizon = false, t+1
	if t == maxTime {
		e.horizon = maxTime
	}
	defer e.endLoop()
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

// RunBefore executes events with timestamps strictly below t and returns.
// Unlike RunUntil it does not advance the clock to t — the partition runner
// calls it repeatedly with growing conservative horizons, and the clock must
// stay at the last executed event so late-injected deliveries (which are
// guaranteed to land at or after it) remain schedulable.
func (e *Engine) RunBefore(t Time) {
	e.stopped, e.horizon = false, t
	defer e.endLoop()
	for !e.stopped {
		at, ok := e.PeekTime()
		if !ok || at >= t {
			return
		}
		e.Step()
	}
}

// Stop makes Run/RunUntil/RunBefore return after the current event
// completes. It also ends run-ahead: a process that sleeps after Stop parks
// instead of running on past the loop's end.
func (e *Engine) Stop() { e.stopped = true }
