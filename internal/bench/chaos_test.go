package bench

import (
	"strings"
	"testing"
)

// TestRunChaosRecoversEveryMix: both figure workloads must finish under
// every fault mix (completion is the matching-correctness check — every
// probe must match its intended receive for the programs to drain), with
// zero recoverable protocol errors and zero unrecovered errors surfacing
// as panics, on every seed of a fixed list. At percent-level rates one
// seed can leave a class idle — at seed 17 the drop cells lose only ACKs
// and the dup cells draw no duplicate — so the engagement check is per
// (workload, mix) over the seed list: each must inject faults and visibly
// engage its reliability machinery on at least one seed.
func TestRunChaosRecoversEveryMix(t *testing.T) {
	type cellKey struct{ workload, mix string }
	injected := map[cellKey]bool{}
	engaged := map[cellKey]bool{}
	for _, seed := range []int64{17, 18, 19} {
		results := RunChaos(ChaosConfig{NIC: NICConfig(ALPU128), Seed: seed, QueueLen: 30})
		if len(results) != 12 { // 2 workloads x (clean + 5 mixes)
			t.Fatalf("seed %d: got %d results, want 12", seed, len(results))
		}
		for _, r := range results {
			if r.Errors != 0 {
				t.Errorf("seed %d %s/%s: %d protocol errors", seed, r.Workload, r.Mix, r.Errors)
			}
			if r.Mix == "clean" {
				if r.Faults.Total() != 0 || r.Rel.Retransmits != 0 {
					t.Errorf("seed %d %s/clean: faults or retransmits in the fault-free reference: %+v %+v",
						seed, r.Workload, r.Faults, r.Rel)
				}
				continue
			}
			if r.Latency <= 0 {
				t.Errorf("seed %d %s/%s: nonpositive latency %v", seed, r.Workload, r.Mix, r.Latency)
			}
			k := cellKey{r.Workload, r.Mix}
			injected[k] = injected[k] || r.Faults.Total() != 0
			switch r.Mix {
			case "drop":
				engaged[k] = engaged[k] || r.Rel.Retransmits != 0
			case "corrupt":
				engaged[k] = engaged[k] || r.Rel.CsumDrops != 0
			case "dup":
				engaged[k] = engaged[k] || r.Rel.DupDrops != 0
			default:
				engaged[k] = true
			}
		}
	}
	for k := range engaged {
		if !injected[k] {
			t.Errorf("%s/%s: fault model injected nothing on any seed", k.workload, k.mix)
		}
		if !engaged[k] {
			switch k.mix {
			case "drop":
				t.Errorf("%s/drop: drops on no seed led to a retransmit", k.workload)
			case "corrupt":
				t.Errorf("%s/corrupt: corruptions on no seed led to a checksum discard", k.workload)
			case "dup":
				t.Errorf("%s/dup: duplicates on no seed led to a dup discard", k.workload)
			}
		}
	}
}

// TestChaosReportDeterministic: same seed, bit-identical rendered report —
// the property the CI chaos determinism diff asserts end to end.
func TestChaosReportDeterministic(t *testing.T) {
	render := func() string {
		var b strings.Builder
		RenderChaos(&b, RunChaos(ChaosConfig{NIC: NICConfig(Baseline), Seed: 23, QueueLen: 20, Jobs: 4}))
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("chaos report diverged between identical runs:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
	if !strings.Contains(a, "preposted") || !strings.Contains(a, "unexpected") {
		t.Errorf("report missing workloads:\n%s", a)
	}
}
