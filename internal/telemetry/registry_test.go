package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// A nil registry hands out nil handles, and every nil handle/recorder
// method is a no-op — the zero-overhead-when-disabled contract.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatal("nil registry returned a live counter")
	}
	c.Inc()
	c.Add(3)
	c.Set(7)
	if c.Get() != 0 {
		t.Error("nil counter Get != 0")
	}
	g := r.Gauge("x")
	g.Set(4)
	g.SetMax(9)
	if g.Get() != 0 {
		t.Error("nil gauge Get != 0")
	}
	h := r.Histogram("x")
	h.Add(2) // must not panic
	if h != nil {
		t.Error("nil registry returned a non-nil histogram")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Hists) != 0 {
		t.Error("nil registry snapshot not empty")
	}

	var tr *Tracer
	tr.NameProcess(0, "p")
	tr.NameThread(0, 0, "t")
	tr.Span(0, 0, "c", "n", 0, 1)
	tr.Instant(0, 0, "c", "n", 0)
	tr.Count(0, 0, "n", 0, 1)
	if tr.Len() != 0 {
		t.Error("nil tracer recorded")
	}

	var p *Phases
	p.Stamp(1, StampWireTx, 10)
	if _, ok := p.Breakdown(1); ok {
		t.Error("nil phases produced a breakdown")
	}
	if p.Totals().Messages != 0 {
		t.Error("nil phases produced totals")
	}
}

func TestRegistryHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("nic0/rel/retransmits")
	c.Inc()
	c.Add(2)
	if c.Get() != 3 {
		t.Errorf("counter = %d, want 3", c.Get())
	}
	if r.Counter("nic0/rel/retransmits") != c {
		t.Error("second Counter() call returned a different handle")
	}
	c.Set(5)
	c.Set(5) // harvest path: idempotent
	if c.Get() != 5 {
		t.Errorf("after Set: %d, want 5", c.Get())
	}

	g := r.Gauge("nic0/posted/peak_len")
	g.SetMax(4)
	g.SetMax(2) // lower: ignored
	if g.Get() != 4 {
		t.Errorf("gauge = %d, want 4", g.Get())
	}
	g.Set(1)
	if g.Get() != 1 {
		t.Errorf("gauge after Set = %d, want 1", g.Get())
	}

	h := r.Histogram("nic0/posted/match_depth")
	h.Add(3)
	if r.Histogram("nic0/posted/match_depth") != h {
		t.Error("histogram handle not cached by name")
	}
	cp := r.Snapshot().Hists["nic0/posted/match_depth"]
	cp.Add(99) // mutating the snapshot copy must not touch the registry
	if h.N() != 1 {
		t.Errorf("histogram N = %d, want 1 (snapshot did not copy)", h.N())
	}
}

func TestSnapshotIsFrozen(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	s := r.Snapshot()
	c.Inc()
	if s.Counter("a") != 1 {
		t.Errorf("snapshot followed the live counter: %d", s.Counter("a"))
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewRegistry()
	a.Counter("nic0/rel/retransmits").Add(2)
	a.Gauge("nic0/posted/peak_len").Set(10)
	a.Histogram("depth").Add(1)

	b := NewRegistry()
	b.Counter("nic0/rel/retransmits").Add(3)
	b.Counter("nic1/rel/timeouts").Inc()
	b.Gauge("nic0/posted/peak_len").Set(7)
	b.Histogram("depth").Add(5)

	var s Snapshot // zero value: Merge must allocate
	s.Merge(a.Snapshot())
	s.Merge(b.Snapshot())
	if s.Counter("nic0/rel/retransmits") != 5 {
		t.Errorf("counters did not sum: %d", s.Counter("nic0/rel/retransmits"))
	}
	if s.Gauges["nic0/posted/peak_len"] != 10 {
		t.Errorf("gauges did not take max: %d", s.Gauges["nic0/posted/peak_len"])
	}
	if h := s.Hists["depth"]; h.N() != 2 || h.Max() != 5 {
		t.Errorf("histograms did not merge: n=%d max=%d", h.N(), h.Max())
	}
	if s.Counter("nic1/rel/timeouts") != 1 {
		t.Error("one-sided counter lost in merge")
	}
}

func TestSnapshotSum(t *testing.T) {
	r := NewRegistry()
	r.Counter("nic0/rel/retransmits").Add(2)
	r.Counter("nic1/rel/retransmits").Add(3)
	r.Counter("nic0/rel/timeouts").Add(7)
	r.Counter("nic0/err/cts-unknown-send").Add(1)
	r.Counter("relx/other").Add(100) // segment mismatch: must not count
	s := r.Snapshot()

	cases := []struct {
		path string
		want uint64
	}{
		{"rel/retransmits", 5},      // infix across NICs
		{"nic0/rel/retransmits", 2}, // exact
		{"nic0", 10},                // prefix
		{"retransmits", 5},          // suffix
		{"err", 1},                  // single-segment infix
		{"rel", 12},                 // "relx" must not match
		{"missing", 0},              //
		{"relx/other", 100},         // exact still works
		{"", 0},                     // empty path matches nothing, not everything
		{"/", 0},                    // separator-only likewise
		{"rel/", 12},                // trailing separator is forgiven
		{"/nic0", 10},               // leading separator likewise
		{"/nic0/rel/", 9},           // both at once
		{"el/retransmits", 0},       // mid-segment start must not match
		{"nic0/rel/retransmit", 0},  // mid-segment end must not match
	}
	for _, c := range cases {
		if got := s.Sum(c.path); got != c.want {
			t.Errorf("Sum(%q) = %d, want %d", c.path, got, c.want)
		}
	}
}

// pathMatch must anchor every occurrence on segment boundaries, and keep
// scanning past a mid-segment hit to find a later aligned one.
func TestPathMatch(t *testing.T) {
	cases := []struct {
		name, path string
		want       bool
	}{
		{"nic0/rel/retransmits", "rel", true},
		{"nic0/relx/retransmits", "rel", false}, // prefix collision
		{"nic0/xrel/retransmits", "rel", false}, // suffix collision
		{"nic0/rel", "rel", true},               // at the end
		{"rel/retransmits", "rel", true},        // at the start
		{"rel", "rel", true},                    // whole name
		{"relx/rel", "rel", true},               // misaligned hit first, aligned later
		{"a/brel/relb/rel/z", "rel", true},      // two misaligned hits before the real one
		{"a/brel/relb", "rel", false},           // only misaligned hits
		{"nic0/rel/x", "rel/x", true},           // multi-segment path
		{"nic0/relx/x", "rel/x", false},         //
	}
	for _, c := range cases {
		if got := pathMatch(c.name, c.path); got != c.want {
			t.Errorf("pathMatch(%q, %q) = %v, want %v", c.name, c.path, got, c.want)
		}
	}
}

func TestSnapshotTableSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h").Add(2)
	out := r.Snapshot().Table()
	ia, ib := strings.Index(out, "\na "), strings.Index(out, "\nb ")
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("counters not sorted:\n%s", out)
	}
	if !strings.Contains(out, "n=1 mean=2.0") {
		t.Errorf("histogram summary missing:\n%s", out)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Counter("z/c").Add(3)
		r.Counter("a/c").Add(1)
		r.Gauge("m").Set(-2)
		r.Histogram("d").Add(4)
		r.Histogram("d").Add(5000)
		return r.Snapshot()
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("identical snapshots rendered different JSON")
	}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]int64  `json:"gauges"`
		Hists    map[string]struct {
			N       uint64 `json:"n"`
			Max     int    `json:"max"`
			Buckets []struct {
				Bucket string `json:"bucket"`
				Count  uint64 `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b1.String())
	}
	if doc.Counters["z/c"] != 3 || doc.Gauges["m"] != -2 {
		t.Errorf("values lost: %+v", doc)
	}
	if h := doc.Hists["d"]; h.N != 2 || h.Max != 5000 || len(h.Buckets) != 2 {
		t.Errorf("histogram JSON = %+v", h)
	}
	// An empty snapshot renders empty objects, not nulls.
	var empty Snapshot
	var be bytes.Buffer
	if err := empty.WriteJSON(&be); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(be.String(), "null") {
		t.Errorf("empty snapshot rendered null:\n%s", be.String())
	}
}
