package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

func stack(fns ...string) []frame {
	st := make([]frame, len(fns))
	for i, fn := range fns {
		st[i] = frame{fn: fn}
	}
	return st
}

func TestFoldChargesRuntimeFramesToCaller(t *testing.T) {
	stacks := [][]frame{
		// Channel handoff under a process park: sim, and its handoff share.
		stack("runtime.chanrecv", "runtime.chanrecv1",
			"alpusim/internal/sim.(*Process).Sleep",
			"alpusim/internal/proc.(*Engine).Cycles",
			"alpusim/internal/nic.(*NIC).firmware"),
		// Garbage collection with no simulator frame.
		stack("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"),
		// Allocation under the cache model, and memsys folded into cache.
		stack("runtime.mallocgc", "alpusim/internal/cache.(*Cache).Access"),
		stack("alpusim/internal/memsys.(*Hierarchy).Read", "alpusim/internal/proc.(*Engine).Load"),
		// The partition barrier.
		stack("runtime.selectgo", "alpusim/internal/sim.(*PartitionSet).Run"),
		// Simulator code that is not a park: sim, but not handoff.
		stack("alpusim/internal/sim.(*Engine).Step"),
		// The benchmark's own code.
		stack("encoding/json.Marshal", "main.main"),
	}
	// The go-back-N code lives in the nic package but is network work.
	stacks = append(stacks, []frame{{fn: "alpusim/internal/nic.(*NIC).onAck", file: "/src/internal/nic/reliability.go"}})
	weights := []int64{5, 3, 2, 1, 4, 6, 1, 2}
	got := map[string]int64{}
	foldStacks(stacks, weights, got)
	want := map[string]int64{
		"sim": 15, bucketHandoff: 5, bucketPartition: 4,
		bucketGC: 3, "cache": 3, bucketHarness: 1, "network": 2,
		bucketTotal: 24,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("bucket %s = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
	if got["proc"] != 0 || got["nic"] != 0 {
		t.Errorf("callers of the innermost simulator frame were charged: %v", got)
	}
}

// busy burns CPU so the profiler has samples to record.
func busy(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	return x
}

func TestFoldProfileParsesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler already running:", err)
	}
	busy(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got := map[string]int64{}
	if err := foldProfile(buf.Bytes(), got); err != nil {
		t.Fatal(err)
	}
	if got[bucketTotal] == 0 {
		t.Fatalf("no samples folded from a 300 ms busy loop: %v", got)
	}
	var sum int64
	for k, v := range got {
		if k != bucketTotal && k != bucketHandoff && k != bucketPartition {
			sum += v
		}
	}
	if sum != got[bucketTotal] {
		t.Errorf("buckets sum to %d, total is %d", sum, got[bucketTotal])
	}
	if err := foldProfile([]byte("not a profile"), got); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

// inProcess runs children as function calls instead of processes.
func inProcess(refs refStore) func(childArgs) (childResult, error) {
	return func(a childArgs) (childResult, error) { return runChild(a, refs), nil }
}

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one benchmark at the tiny size and decodes its last line.
func runTiny(t *testing.T, workload string, trace bool, refs refStore) (jsonResult, string) {
	t.Helper()
	opt := options{workload: workload, seed: defaultSeed, trace: trace, budget: time.Nanosecond, tiny: true}
	rep := measure(opt, inProcess(refs))
	var out bytes.Buffer
	rep.print(&out, opt)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return res, out.String()
}

func TestSmokeEveryMetricPrintedWithUnit(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloadNames[i])
		}
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, out := runTiny(t, w.Name, trace, refStore{})
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v (present %t), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				if !strings.Contains(out, m.Name) {
					t.Errorf("%s trace=%t: %s missing from the readable lines", w.Name, trace, m.Name)
				}
			}
			for _, extra := range []string{"sim_makespan_us", "failed_frac", "meta:"} {
				if !strings.Contains(out, extra) {
					t.Errorf("%s trace=%t: %s not printed", w.Name, trace, extra)
				}
			}
		}
	}
}

func TestCorruptedReferenceRaisesFailedFrac(t *testing.T) {
	w, err := lookupWorkload("posted-sw", tinySize)
	if err != nil {
		t.Fatal(err)
	}
	var good outcome
	if err := guarded(func() { good = w.pass(defaultSeed) }); err != nil {
		t.Fatal(err)
	}
	key := "tiny/" + refKey(w, defaultSeed)

	res, out := runTiny(t, "posted-sw", false, refStore{key: good.Values})
	if res.Failed != 0 || !res.Correct {
		t.Fatalf("the true reference failed: %+v\n%s", res, out)
	}

	bad := append([]int64(nil), good.Values...)
	bad[len(bad)/2]++
	res, out = runTiny(t, "posted-sw", false, refStore{key: bad})
	if res.Failed == 0 || res.Correct {
		t.Fatalf("a corrupted reference value went unnoticed: %+v\n%s", res, out)
	}
	frac := -1.0
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "failed_frac" {
			frac, _ = strconv.ParseFloat(f[1], 64)
		}
	}
	if frac <= 0 {
		t.Errorf("failed_frac = %g, want above 0:\n%s", frac, out)
	}
}

func TestVerify(t *testing.T) {
	o := outcome{Values: []int64{1, 2, 3, 4}, PerWorld: 2, Bad: []bool{false, false}}
	for _, tc := range []struct {
		name string
		refs [][]int64
		want int
	}{
		{"no reference", nil, 0},
		{"nil reference", [][]int64{nil}, 0},
		{"equal", [][]int64{{1, 2, 3, 4}}, 0},
		{"second world differs", [][]int64{{1, 2, 3, 5}}, 1},
		{"wrong shape", [][]int64{{1, 2}}, 2},
		{"one of two references differs", [][]int64{{1, 2, 3, 4}, {0, 2, 3, 4}}, 1},
	} {
		if got := verify(o, tc.refs...); got != tc.want {
			t.Errorf("%s: %d failed, want %d", tc.name, got, tc.want)
		}
	}
	o.Bad[1] = true
	if got := verify(o); got != 1 {
		t.Errorf("a world marked bad in the pass: %d failed, want 1", got)
	}
}

func TestReferenceCoversRecordedSeeds(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w, err := lookupWorkload(name, fullSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			if refs.lookup(w, false, seed) == nil {
				t.Errorf("no reference for %s seed %d", name, seed)
			}
		}
	}
}

func TestUnknownWorkloadExitsNonZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("printed a result for an unknown workload: %q", out.String())
	}
}
