package bench

import (
	"strings"
	"testing"
)

// TestRunDevChaosEveryScenarioMatches: every device-fault scenario must
// complete (no hang — a dying device may cost time, never progress) with
// a matching digest byte-identical to the clean software-only reference,
// and with its fault class visibly injected.
func TestRunDevChaosEveryScenarioMatches(t *testing.T) {
	results := RunDevChaos(DevChaosConfig{Seed: 42})
	if len(results) != len(DefaultDevChaosScenarios()) {
		t.Fatalf("got %d results, want %d", len(results), len(DefaultDevChaosScenarios()))
	}
	for _, r := range results {
		if !r.Match {
			t.Errorf("%s: digest %016x diverged from the clean reference", r.Scenario, r.Digest)
		}
		if r.Latency <= 0 {
			t.Errorf("%s: nonpositive latency %v", r.Scenario, r.Latency)
		}
		switch r.Scenario {
		case "bitflip-storm":
			if r.BitFlips == 0 || r.Resyncs == 0 {
				t.Errorf("bitflip-storm idle: flips=%d resyncs=%d", r.BitFlips, r.Resyncs)
			}
		case "result-drops":
			if r.DroppedResults == 0 || r.Strikes == 0 {
				t.Errorf("result-drops idle: drops=%d strikes=%d", r.DroppedResults, r.Strikes)
			}
		case "alpu-death":
			if r.Deaths == 0 || r.ShadowRebuilds == 0 {
				t.Errorf("alpu-death: no failover recorded: deaths=%d rebuilds=%d", r.Deaths, r.ShadowRebuilds)
			}
		case "fw-crash-loop":
			if r.FwCrashes == 0 || r.FwCrashes != r.FwRestarts {
				t.Errorf("fw-crash-loop: crashes=%d restarts=%d", r.FwCrashes, r.FwRestarts)
			}
		}
	}
}

// TestDevChaosReportDeterministic: same seed, bit-identical rendered
// report across runs and partition counts — the property the CI devchaos
// determinism diff asserts end to end.
func TestDevChaosReportDeterministic(t *testing.T) {
	render := func(parts int) string {
		var b strings.Builder
		RenderDevChaos(&b, RunDevChaos(DevChaosConfig{Seed: 7, Jobs: 4, Partitions: parts}))
		return b.String()
	}
	ref := render(1)
	if again := render(1); again != ref {
		t.Errorf("devchaos report diverged between identical runs:\n--- run 1\n%s--- run 2\n%s", ref, again)
	}
	if par := render(4); par != ref {
		t.Errorf("devchaos report diverged between -par 1 and -par 4:\n--- par 1\n%s--- par 4\n%s", ref, par)
	}
	if !strings.Contains(ref, "alpu-death") || !strings.Contains(ref, "MATCH") {
		t.Errorf("report missing scenarios:\n%s", ref)
	}
	if strings.Contains(ref, "DIVERGED") {
		t.Errorf("report contains diverged scenario:\n%s", ref)
	}
}
