package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"alpusim/internal/sim"
)

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer()
	tr.NameProcess(0, "nic0")
	tr.NameThread(0, 1, "posted-alpu")
	tr.Span(0, 1, "alpu", "search", 1_234_567, 2_000_000)
	tr.Instant(0, 3, "rel", "retransmit", 3*sim.Microsecond)
	tr.Count(999, 0, "pending", 0, 42)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (metadata is separate)", tr.Len())
	}

	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	var events []map[string]any
	if err := json.Unmarshal(b.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, out)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5 (2 metadata + 3)", len(events))
	}
	// Metadata first, then events in call order.
	if events[0]["ph"] != "M" || events[1]["ph"] != "M" {
		t.Errorf("metadata not first: %v", events[:2])
	}
	if events[2]["ph"] != "X" || events[3]["ph"] != "i" || events[4]["ph"] != "C" {
		t.Errorf("event order/kinds wrong: %v", events[2:])
	}
	// Timestamps are exact microseconds with six decimals (1234567 ps).
	if !strings.Contains(out, `"ts":1.234567`) {
		t.Errorf("ps->us timestamp not exact:\n%s", out)
	}
	if !strings.Contains(out, `"dur":0.765433`) {
		t.Errorf("span duration wrong:\n%s", out)
	}
	if !strings.Contains(out, `"s":"t"`) {
		t.Error("instant missing thread scope")
	}
}

func TestSpanClampsBackwardsEnd(t *testing.T) {
	tr := NewTracer()
	tr.Span(0, 0, "c", "n", 100, 50)
	var b bytes.Buffer
	tr.WriteJSON(&b)
	if !strings.Contains(b.String(), `"dur":0.000000`) {
		t.Errorf("backwards span not clamped:\n%s", b.String())
	}
}

// WriteTrace offsets the second tracer's pids so two worlds' tracks stay
// disjoint, and skips nil tracers.
func TestWriteTraceMergesWorlds(t *testing.T) {
	t1 := NewTracer()
	t1.Instant(1, 0, "c", "a", 0)
	t2 := NewTracer()
	t2.Instant(1, 0, "c", "b", 0)
	var b bytes.Buffer
	if err := WriteTrace(&b, t1, nil, t2); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if p0, p1 := events[0]["pid"].(float64), events[1]["pid"].(float64); p0 != 1 || p1 != float64(1+2<<16) {
		t.Errorf("pids = %v, %v; want 1 and %d", p0, p1, 1+2<<16)
	}
}

func TestWriteTraceEmpty(t *testing.T) {
	var b bytes.Buffer
	if err := WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b.Bytes(), &events); err != nil {
		t.Fatalf("empty trace invalid: %v (%q)", err, b.String())
	}
	if len(events) != 0 {
		t.Errorf("empty trace has %d events", len(events))
	}
}

// A flight recorder keeps only the newest N events; WriteJSON renders
// them oldest-first so the dump reads as a normal (truncated) trace.
func TestFlightRecorderRing(t *testing.T) {
	tr := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		tr.Instant(0, 0, "c", "e", sim.Time(i)*sim.Microsecond)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Ts float64 `json:"ts"`
	}
	if err := json.Unmarshal(b.Bytes(), &events); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v\n%s", err, b.String())
	}
	if len(events) != 4 {
		t.Fatalf("dumped %d events, want 4", len(events))
	}
	// The survivors are the last four, in chronological order.
	for i, e := range events {
		if want := float64(6 + i); e.Ts != want {
			t.Errorf("event %d ts = %v, want %v (ring not chronological)", i, e.Ts, want)
		}
	}
}

func TestFlightRecorderUnderfilled(t *testing.T) {
	tr := NewFlightRecorder(8)
	tr.Instant(0, 0, "c", "a", 0)
	tr.Instant(0, 0, "c", "b", sim.Microsecond)
	if tr.Len() != 2 || tr.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 2 and 0", tr.Len(), tr.Dropped())
	}
	var b bytes.Buffer
	if err := WriteTrace(&b, tr); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != 2 || events[0]["name"] != "a" || events[1]["name"] != "b" {
		t.Errorf("underfilled ring misrendered: %v", events)
	}
}

// Metadata (process/thread names) must survive the ring: a dump without
// them would lose its Perfetto track labels.
func TestFlightRecorderKeepsMetadata(t *testing.T) {
	tr := NewFlightRecorder(2)
	tr.NameProcess(0, "nic0")
	for i := 0; i < 50; i++ {
		tr.Span(0, 0, "fw", "op", sim.Time(i), sim.Time(i+1))
	}
	var b bytes.Buffer
	tr.WriteJSON(&b)
	if !strings.Contains(b.String(), `"nic0"`) {
		t.Errorf("process name evicted from flight dump:\n%s", b.String())
	}
}

// Flow events render as Perfetto 's'/'f' pairs sharing a correlation id,
// with the terminating end carrying the enclosing-slice binding point.
func TestTracerFlowEvents(t *testing.T) {
	tr := NewTracer()
	tr.FlowStart(0, 0, "mpi", "msg", 1*sim.Microsecond, 0xbeef)
	tr.FlowEnd(1, 0, "mpi", "msg", 2*sim.Microsecond, 0xbeef)
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0]["ph"] != "s" || events[1]["ph"] != "f" {
		t.Errorf("phases = %v, %v; want s, f", events[0]["ph"], events[1]["ph"])
	}
	if events[0]["id"] != events[1]["id"] {
		t.Errorf("flow ids differ: %v vs %v", events[0]["id"], events[1]["id"])
	}
	if events[1]["bp"] != "e" {
		t.Error("flow end missing bp=e binding (arrows land mid-span)")
	}
	if _, ok := events[0]["bp"]; ok {
		t.Error("flow start must not carry a binding point")
	}
}

// A flight ring must not record flows: a ring that overwrote one arrow
// end would render dangling flows, and the post-mortem dump consumers
// assert the plain {M, X, i, C} event alphabet.
func TestFlightRecorderSkipsFlows(t *testing.T) {
	tr := NewFlightRecorder(8)
	tr.FlowStart(0, 0, "mpi", "msg", 0, 1)
	tr.FlowEnd(0, 0, "mpi", "msg", 1, 1)
	tr.Instant(0, 0, "c", "e", 2)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (flows must be skipped in flight mode)", tr.Len())
	}
}
