package sim

import "sort"

// ladderQueue is a bucketed priority queue in the ladder-queue family
// (Tang et al.), tuned for the event-dense large worlds the partition
// runner targets. Instead of paying O(log n) comparisons per operation in
// a binary heap, events flow through three tiers:
//
//	far     an unsorted overflow list for events beyond the current rung;
//	        push is O(1) append
//	rung    an array of fixed-width time buckets spreading the far list;
//	        push into an active rung is O(1) bucket append
//	bottom  the sorted run currently being drained; pop is O(1), push of
//	        a near-future event is a binary-search insert into the
//	        (typically one-bucket-sized) run
//
// When bottom drains, the next non-empty bucket is sorted wholesale into
// it; when the rung is exhausted, the far list is respread into a fresh
// rung sized to its time span. Each event is therefore touched a constant
// number of times between push and pop, for amortized O(1) cost.
//
// The sort comparator is eventLess — the same composite (at, k1, k2) key
// the heap kernel uses — so both kernels pop in bit-identical order.
//
// Cancellation is lazy: Engine.Cancel marks the event dead (fn == nil, and
// proc is nil since only closure events are cancellable) and decrements
// live; dead events are skipped and recycled when their bucket drains.
// live therefore counts schedulable events only.
type ladderQueue struct {
	bottom []*event // sorted run being drained; next pop at index bot
	bot    int

	rung      [][]*event // fixed-width buckets; indexes < rungIdx are spent
	rungStart Time       // lower time edge of bucket 0
	width     Time       // bucket width (> 0 while rung != nil)
	rungIdx   int        // next bucket to spill into bottom

	// edge is the exclusive upper bound of the region bottom covers: a
	// pushed event below it belongs in the sorted run, at or above it in
	// the rung or far list. It only moves forward, except when a respread
	// rebases it onto the (provably later) far-list minimum.
	edge Time

	far            []*event // unsorted overflow beyond the rung
	farMin, farMax Time

	live    int
	recycle func(*event)
}

// ladderMaxBuckets caps a rung's bucket count; ladderDirect is the far-list
// size below which a respread just sorts directly into bottom.
const (
	ladderMaxBuckets = 1024
	ladderDirect     = 16
)

func (q *ladderQueue) push(ev *event) {
	q.live++
	if ev.at < q.edge {
		q.insertBottom(ev)
		return
	}
	if q.rung != nil {
		if end := q.rungStart + q.width*Time(len(q.rung)); ev.at < end {
			i := int((ev.at - q.rungStart) / q.width)
			q.rung[i] = append(q.rung[i], ev)
			return
		}
	}
	if len(q.far) == 0 || ev.at < q.farMin {
		q.farMin = ev.at
	}
	if len(q.far) == 0 || ev.at > q.farMax {
		q.farMax = ev.at
	}
	q.far = append(q.far, ev)
}

func (q *ladderQueue) insertBottom(ev *event) {
	lo := q.bot
	i := lo + sort.Search(len(q.bottom)-lo, func(k int) bool {
		return eventLess(ev, q.bottom[lo+k])
	})
	q.bottom = append(q.bottom, nil)
	copy(q.bottom[i+1:], q.bottom[i:])
	q.bottom[i] = ev
}

// ensure advances internal state until a live event sits at the front of
// bottom, reporting false when the queue is empty. Dead (cancelled) events
// encountered on the way are recycled.
func (q *ladderQueue) ensure() bool {
	for {
		for q.bot < len(q.bottom) {
			ev := q.bottom[q.bot]
			if ev.fn != nil || ev.proc != nil {
				return true
			}
			q.bottom[q.bot] = nil
			q.bot++
			q.recycle(ev)
		}
		q.bottom = q.bottom[:0]
		q.bot = 0
		if q.rung != nil {
			spilled := false
			for q.rungIdx < len(q.rung) {
				b := q.rung[q.rungIdx]
				q.rung[q.rungIdx] = nil
				q.rungIdx++
				q.edge = q.rungStart + q.width*Time(q.rungIdx)
				if len(b) > 0 {
					sort.Slice(b, func(i, j int) bool { return eventLess(b[i], b[j]) })
					q.bottom = b
					spilled = true
					break
				}
			}
			if spilled {
				continue
			}
			q.rung = nil
		}
		if len(q.far) == 0 {
			return false
		}
		q.respread()
	}
}

// respread rebuilds the rung (or, for small lists, bottom directly) from
// the far list. Every far event was pushed at or above the then-current
// edge, and the edge only grows between respreads, so farMin >= edge and
// rebasing the ladder onto [farMin, farMax] never moves coverage backward.
func (q *ladderQueue) respread() {
	far := q.far
	q.far = nil
	span := q.farMax - q.farMin
	if len(far) <= ladderDirect || span == 0 {
		sort.Slice(far, func(i, j int) bool { return eventLess(far[i], far[j]) })
		q.bottom = far
		q.bot = 0
		q.edge = q.farMax + 1
		return
	}
	nb := len(far)
	if nb > ladderMaxBuckets {
		nb = ladderMaxBuckets
	}
	q.rungStart = q.farMin
	q.width = span/Time(nb) + 1
	q.rung = make([][]*event, nb)
	q.rungIdx = 0
	q.edge = q.rungStart
	for _, ev := range far {
		i := int((ev.at - q.rungStart) / q.width)
		if i >= nb {
			i = nb - 1
		}
		q.rung[i] = append(q.rung[i], ev)
	}
}

func (q *ladderQueue) pop() *event {
	if !q.ensure() {
		return nil
	}
	ev := q.bottom[q.bot]
	q.bottom[q.bot] = nil
	q.bot++
	q.live--
	return ev
}

func (q *ladderQueue) peek() (Time, bool) {
	if !q.ensure() {
		return 0, false
	}
	return q.bottom[q.bot].at, true
}
