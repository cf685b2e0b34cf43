package sim

// Ring is an unbounded first-in first-out queue of values. The zero value
// is an empty ring that allocates nothing until its first Push; the
// buffer doubles from 4 slots when full, so its length is always a power
// of two and indices wrap with a mask. Popped slots are zeroed so the ring
// never retains references to items it no longer holds.
type Ring[T any] struct {
	buf   []T
	head  int // index of the oldest item
	count int
}

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return r.count }

// Push appends v.
func (r *Ring[T]) Push(v T) {
	if r.count == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.count)&(len(r.buf)-1)] = v
	r.count++
}

// Pop removes and returns the oldest item.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	if r.count == 0 {
		return zero, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.count--
	return v, true
}

// Peek returns the oldest item without removing it.
func (r *Ring[T]) Peek() (T, bool) {
	if r.count == 0 {
		var zero T
		return zero, false
	}
	return r.buf[r.head], true
}

// grow doubles the buffer, unwrapping the live items to its front.
func (r *Ring[T]) grow() {
	buf := make([]T, max(2*len(r.buf), 4))
	n := copy(buf, r.buf[r.head:])
	copy(buf[n:], r.buf[:r.head])
	r.buf = buf
	r.head = 0
}

// FIFO is a bounded queue with a "became non-empty" signal, modelling the
// decoupling FIFOs the paper places between the processor, the header
// stream, and the ALPU (Fig. 1). Capacity 0 means unbounded. Storage is a
// Ring, so Push and Pop are O(1) and a FIFO that never fills past a few
// items never allocates more than a few slots.
type FIFO[T any] struct {
	name     string
	ring     Ring[T]
	capacity int
	NotEmpty *Signal
	NotFull  *Signal

	// Stats.
	maxDepth int
	pushes   uint64
	drops    uint64
}

// NewFIFO returns an empty FIFO with the given capacity (0 = unbounded).
func NewFIFO[T any](e *Engine, name string, capacity int) *FIFO[T] {
	return &FIFO[T]{
		name:     name,
		capacity: capacity,
		NotEmpty: NewSignal(e),
		NotFull:  NewSignal(e),
	}
}

// Name returns the FIFO's name.
func (f *FIFO[T]) Name() string { return f.name }

// Len returns the number of queued items.
func (f *FIFO[T]) Len() int { return f.ring.count }

// Cap returns the capacity (0 = unbounded).
func (f *FIFO[T]) Cap() int { return f.capacity }

// Full reports whether a Push would fail.
func (f *FIFO[T]) Full() bool { return f.capacity > 0 && f.ring.count >= f.capacity }

// Push appends v. It reports false (dropping v) when the FIFO is full;
// hardware-faithful callers must check Full first or handle the drop.
func (f *FIFO[T]) Push(v T) bool {
	if f.Full() {
		f.drops++
		return false
	}
	f.ring.Push(v)
	f.pushes++
	if f.ring.count > f.maxDepth {
		f.maxDepth = f.ring.count
	}
	f.NotEmpty.Raise()
	return true
}

// Pop removes and returns the oldest item.
func (f *FIFO[T]) Pop() (T, bool) {
	v, ok := f.ring.Pop()
	if !ok {
		return v, false
	}
	f.NotFull.Raise()
	if f.ring.count > 0 {
		f.NotEmpty.Raise()
	}
	return v, true
}

// Peek returns the oldest item without removing it.
func (f *FIFO[T]) Peek() (T, bool) { return f.ring.Peek() }

// MaxDepth reports the high-water mark since creation.
func (f *FIFO[T]) MaxDepth() int { return f.maxDepth }

// Pushes reports the number of successful pushes.
func (f *FIFO[T]) Pushes() uint64 { return f.pushes }

// Drops reports the number of pushes rejected because the FIFO was full.
func (f *FIFO[T]) Drops() uint64 { return f.drops }
