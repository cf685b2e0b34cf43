package sim

import "testing"

// TestFIFOWraparound drives a bounded FIFO through many push/pop cycles so
// the ring indices wrap repeatedly, checking FIFO order and stats.
func TestFIFOWraparound(t *testing.T) {
	e := NewEngine()
	f := NewFIFO[int](e, "ring", 3)
	next := 0 // next value to push
	want := 0 // next value expected from Pop
	// Keep the FIFO at depth 2 while pushing 100 items: head wraps the
	// 4-slot ring (a capacity-3 FIFO rounds its ring up to a power of
	// two) dozens of times.
	f.Push(next)
	next++
	for next < 100 {
		if !f.Push(next) {
			t.Fatalf("push %d rejected at len %d", next, f.Len())
		}
		next++
		v, ok := f.Pop()
		if !ok || v != want {
			t.Fatalf("pop = %d,%v want %d", v, ok, want)
		}
		want++
	}
	for f.Len() > 0 {
		v, ok := f.Pop()
		if !ok || v != want {
			t.Fatalf("drain pop = %d,%v want %d", v, ok, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained to %d, pushed %d", want, next)
	}
	if f.Pushes() != 100 || f.Drops() != 0 {
		t.Fatalf("pushes=%d drops=%d want 100,0", f.Pushes(), f.Drops())
	}
	if f.MaxDepth() != 2 {
		t.Fatalf("maxDepth=%d want 2", f.MaxDepth())
	}
}

// TestFIFOWraparoundFull fills a bounded FIFO to capacity from a wrapped
// head position and checks Full/drop behaviour and order.
func TestFIFOWraparoundFull(t *testing.T) {
	e := NewEngine()
	f := NewFIFO[int](e, "ring", 4)
	for i := 0; i < 3; i++ { // advance head so the full window wraps
		f.Push(-1)
		f.Pop()
	}
	for i := 0; i < 4; i++ {
		if !f.Push(i) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if !f.Full() {
		t.Fatal("not full at capacity")
	}
	if f.Push(99) {
		t.Fatal("push succeeded on full FIFO")
	}
	if f.Drops() != 1 {
		t.Fatalf("drops=%d want 1", f.Drops())
	}
	for i := 0; i < 4; i++ {
		v, ok := f.Pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d", v, ok, i)
		}
	}
}

// TestFIFOUnboundedGrowth checks that a capacity-0 FIFO grows through
// several ring reallocations, including from a wrapped state, without
// losing order.
func TestFIFOUnboundedGrowth(t *testing.T) {
	e := NewEngine()
	f := NewFIFO[int](e, "u", 0)
	// Wrap the initial ring before forcing growth.
	for i := 0; i < 5; i++ {
		f.Push(i)
	}
	for i := 0; i < 3; i++ {
		f.Pop()
	}
	for i := 5; i < 200; i++ {
		if !f.Push(i) {
			t.Fatalf("unbounded FIFO rejected push %d", i)
		}
	}
	if f.Len() != 197 {
		t.Fatalf("len=%d want 197", f.Len())
	}
	for i := 3; i < 200; i++ {
		v, ok := f.Pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("pop succeeded on drained FIFO")
	}
}

// TestFIFOPopZeroesSlot checks that Pop clears the vacated slot so the ring
// retains no reference to popped items (lets the GC reclaim them).
func TestFIFOPopZeroesSlot(t *testing.T) {
	e := NewEngine()
	f := NewFIFO[*int](e, "z", 2)
	v := new(int)
	f.Push(v)
	f.Pop()
	for _, s := range f.ring.buf {
		if s != nil {
			t.Fatal("popped slot still references the item")
		}
	}
}
