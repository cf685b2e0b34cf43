package sim

import (
	"fmt"
	"testing"
)

// TestDeliveryOrdering pins the canonical tie-break: at one instant,
// ordinary events fire in schedule order before any delivery, and
// deliveries fire in (source, per-source sequence) order regardless of
// the order they were scheduled in.
func TestDeliveryOrdering(t *testing.T) {
	e := NewEngine()
	var got []string
	add := func(name string) func() {
		return func() { got = append(got, name) }
	}
	const at = 100 * Nanosecond
	e.AtDelivery(at, 2, 1, add("d:src2#1"))
	e.AtDelivery(at, 1, 7, add("d:src1#7"))
	e.At(at, add("ord1"))
	e.AtDelivery(at, 1, 9, add("d:src1#9"))
	e.At(at, add("ord2"))
	for e.Step() {
	}
	want := []string{"ord1", "ord2", "d:src1#7", "d:src1#9", "d:src2#1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}
