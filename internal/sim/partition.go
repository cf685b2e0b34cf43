package sim

import (
	"runtime"
	"sort"
)

// Conservative parallel discrete-event simulation of one world.
//
// A world is split into partitions — disjoint groups of ranks, one Engine
// per partition, all sharing one simulated clock domain. The only way one
// partition affects another is a cross-partition packet delivery, and every
// delivery is scheduled at least the wire latency L after the event that
// sends it. That bound is the classic conservative lookahead, and it gives
// partition p two constraints:
//
//   - spontaneous bound: partition q's earliest pending event is at n_q, so
//     no delivery originating at q lands anywhere before n_q + L — p may
//     run strictly below L + min over q != p of n_q;
//   - reaction bound: p's own earliest event at n_p can send a delivery that
//     wakes another partition — even one with an empty queue, whose ranks
//     are merely parked — and the earliest *response* lands back no sooner
//     than one round trip later, n_p + 2L. This term only ever binds for
//     the globally earliest partition (elsewhere n_p + 2L >= min1 + 2L >=
//     the spontaneous bound), and only while some other partition is still
//     reactive (pending events or parked processes).
//
//	h_p = min( L + min over q != p of n_q , n_p + 2L if others can react )
//
// The runner repeats barrier windows: compute each partition's horizon, run
// all partitions concurrently up to their horizons, then exchange the
// deliveries generated during the window in canonical (time, source,
// sequence) order. When no other partition can react — a 1-partition world,
// or the endgame where every other partition has drained and exited — the
// horizon is unbounded and the remainder runs in a single window at
// near-serial speed.
//
// Determinism does not depend on the window schedule. Each rank's event
// chain is rank-local except for deliveries, ordinary events within a rank
// keep schedule order (Engine composite key, k1 = 0), and deliveries fire
// in (time, source, per-source sequence) order whether they were scheduled
// directly (same partition) or injected at a barrier (cross partition) —
// the deliveryClass key class makes both paths sort identically. Output at
// -par N is therefore byte-identical for every N >= 1.

// Delivery is one cross-partition packet handoff, buffered in the sending
// partition's outbox during a window and injected into the destination
// engine at the next barrier.
type Delivery struct {
	At   Time   // absolute delivery time (>= send time + lookahead)
	Src  uint32 // sending endpoint — canonical order, major
	Seq  uint64 // per-source delivery sequence — canonical order, minor
	Part int    // destination partition
	Fn   func()
}

// PartitionSet couples the per-partition engines of one world and runs
// them to completion under conservative synchronization. It is built once
// per world; Run may be called once.
type PartitionSet struct {
	engines   []*Engine
	lookahead Time
	outbox    [][]Delivery

	// OnBarrier, when set, runs single-threaded on the coordinator after
	// every window, with all partitions parked. The MPI layer uses it to
	// surface watchdog expiries: the failing partition's watchdog stops
	// its engine mid-window, and the hook re-raises the failure here,
	// where harvesting world state is race-free.
	OnBarrier func()
	// OnInject, when set, runs single-threaded for each partition that
	// received injected deliveries at a barrier — the hook that re-arms a
	// watchdog whose partition had drained and stopped polling.
	OnInject func(part int)

	next     []Time // per-partition earliest event, this window
	react    []bool // per-partition: can still be woken by a delivery
	fails    []any  // per-partition captured panics
	all      []Delivery
	injected []bool

	start []chan Time
	done  chan struct{}
}

// NewPartitionSet couples engines (one per partition) with the world's
// conservative lookahead — the minimum cross-partition delivery delay,
// i.e. the wire latency.
func NewPartitionSet(engines []*Engine, lookahead Time) *PartitionSet {
	if len(engines) == 0 {
		panic("sim: partition set needs at least one engine")
	}
	if lookahead <= 0 {
		panic("sim: conservative lookahead must be positive")
	}
	n := len(engines)
	return &PartitionSet{
		engines:   engines,
		lookahead: lookahead,
		outbox:    make([][]Delivery, n),
		next:      make([]Time, n),
		react:     make([]bool, n),
		fails:     make([]any, n),
		injected:  make([]bool, n),
	}
}

// Engines returns the per-partition engines, in partition order.
func (ps *PartitionSet) Engines() []*Engine { return ps.engines }

// Lookahead returns the conservative lookahead bound.
func (ps *PartitionSet) Lookahead() Time { return ps.lookahead }

// Defer buffers a cross-partition delivery in partition src's outbox.
// It must be called from within src's window (or single-threaded between
// windows); each partition writes only its own outbox, so windows never
// contend.
func (ps *PartitionSet) Defer(srcPart int, d Delivery) {
	ps.outbox[srcPart] = append(ps.outbox[srcPart], d)
}

// goexit is recorded in PartitionSet.fails for a window that a process
// ended with runtime.Goexit.
type goexit struct{}

// Run executes barrier windows until every partition's queue drains, then
// releases the processes still parked (see Engine.release). A panic on any
// partition (process failure, watchdog) is re-raised on the caller's
// goroutine, and a runtime.Goexit in a process ends the caller's goroutine;
// with several, the lowest partition index wins, deterministically. Either
// way every partition's window has ended before Run unwinds.
func (ps *PartitionSet) Run() {
	n := len(ps.engines)
	ps.start = make([]chan Time, n)
	ps.done = make(chan struct{}, n)
	for p := 1; p < n; p++ {
		ps.start[p] = make(chan Time, 1)
		go ps.worker(p)
	}
	launched := 0
	defer func() {
		// Non-zero only when a Goexit on partition 0 unwinds the
		// coordinator mid-window.
		for ; launched > 0; launched-- {
			<-ps.done
		}
		for p := 1; p < n; p++ {
			close(ps.start[p])
		}
	}()
	for {
		busy := 0
		for i, eng := range ps.engines {
			if t, ok := eng.PeekTime(); ok {
				ps.next[i] = t
				busy++
			} else {
				ps.next[i] = maxTime
			}
			ps.react[i] = ps.next[i] != maxTime || eng.ParkedProcs() > 0
		}
		if busy == 0 {
			for _, eng := range ps.engines {
				eng.release()
			}
			return
		}
		// The two earliest next-event times determine every horizon: for
		// the globally earliest partition the binding bound is the second
		// minimum (or its own reaction round trip), for everyone else the
		// minimum.
		min1, arg1, min2 := maxTime, -1, maxTime
		for i, t := range ps.next {
			if t < min1 {
				min1, min2, arg1 = t, min1, i
			} else if t < min2 {
				min2 = t
			}
		}
		for p := n - 1; p >= 1; p-- {
			if ps.next[p] == maxTime {
				continue
			}
			ps.start[p] <- ps.horizon(p, min1, arg1, min2)
			launched++
		}
		// Partition 0 runs its window inline on the coordinator.
		if ps.next[0] != maxTime {
			ps.window(0, ps.horizon(0, min1, arg1, min2))
		}
		for ; launched > 0; launched-- {
			<-ps.done
		}
		for p, f := range ps.fails {
			if f != nil {
				ps.fails[p] = nil
				if f == (goexit{}) {
					runtime.Goexit()
				}
				panic(f)
			}
		}
		if ps.OnBarrier != nil {
			ps.OnBarrier()
		}
		ps.flush()
	}
}

// horizon is h_p = lookahead + min over other partitions' next-event
// times, capped by p's own reaction round trip (next + 2*lookahead) while
// any other partition can still be woken by a delivery; unbounded when no
// other partition has events or parked processes.
func (ps *PartitionSet) horizon(p int, min1 Time, arg1 int, min2 Time) Time {
	m := min1
	if p == arg1 {
		m = min2
	}
	h := maxTime
	if m != maxTime {
		h = m + ps.lookahead
	}
	for q, r := range ps.react {
		if q != p && r {
			if rb := ps.next[p] + 2*ps.lookahead; rb < h {
				h = rb
			}
			break
		}
	}
	return h
}

// worker runs partition p's windows. It signals done from a defer, so a
// Goexit that ends the worker mid-window still releases the coordinator,
// which then finds the Goexit recorded in fails.
func (ps *PartitionSet) worker(p int) {
	for h := range ps.start[p] {
		func() {
			defer func() { ps.done <- struct{}{} }()
			ps.window(p, h)
		}()
	}
}

// window runs partition p up to h, recording a panic or a Goexit that
// ends the window in fails[p].
func (ps *PartitionSet) window(p int, h Time) {
	ended := false
	defer func() {
		if r := recover(); r != nil {
			ps.fails[p] = r
		} else if !ended {
			ps.fails[p] = goexit{}
		}
	}()
	ps.engines[p].RunBefore(h)
	ended = true
}

// flush merges every outbox, sorts the deliveries by their canonical
// (time, source, sequence) key, and injects them into their destination
// engines. The injection order is a pure function of the deliveries
// themselves, never of the partition layout or window schedule.
func (ps *PartitionSet) flush() {
	all := ps.all[:0]
	for p := range ps.outbox {
		all = append(all, ps.outbox[p]...)
		ob := ps.outbox[p]
		for i := range ob {
			ob[i].Fn = nil
		}
		ps.outbox[p] = ob[:0]
	}
	if len(all) == 0 {
		ps.all = all
		return
	}
	// The key (At, Src, Seq) is unique — Seq increases strictly per
	// source — so an unstable sort is total here.
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Seq < b.Seq
	})
	for i := range ps.injected {
		ps.injected[i] = false
	}
	for _, d := range all {
		ps.engines[d.Part].AtDelivery(d.At, d.Src, d.Seq, d.Fn)
		ps.injected[d.Part] = true
	}
	if ps.OnInject != nil {
		for p, got := range ps.injected {
			if got {
				ps.OnInject(p)
			}
		}
	}
	for i := range all {
		all[i].Fn = nil
	}
	ps.all = all[:0]
}
