package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// Seeds the benchmark records references for. Default is the seed runs
// use unless told otherwise; a performance claim must also hold on the
// held-out seed, which is not used while the change is written.
const (
	defaultSeed int64 = 1
	heldOutSeed int64 = 7
)

// refStore maps a workload key to the per-world results the simulator
// produced at the commit that defined the benchmark (reference.json).
type refStore map[string][]int64

//go:embed reference.json
var referenceJSON []byte

func loadRefs() (refStore, error) {
	var r refStore
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

func refKey(w *workload, seed int64) string {
	if !w.seeded {
		return w.name
	}
	return fmt.Sprintf("%s/seed=%d", w.name, seed)
}

// lookup returns the reference for the workload and seed, or nil when
// none was recorded (the tiny test sizes, unrecorded seeds).
func (r refStore) lookup(w *workload, tiny bool, seed int64) []int64 {
	if tiny {
		return r["tiny/"+refKey(w, seed)]
	}
	return r[refKey(w, seed)]
}

// recordRefs runs one pass of every workload at the recorded seeds and
// writes the results as reference.json.
func recordRefs(path string) error {
	out := refStore{}
	for _, name := range workloadNames {
		w, err := lookupWorkload(name, fullSize)
		if err != nil {
			return err
		}
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			var o outcome
			if err := guarded(func() { o = w.pass(seed) }); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if verify(o) != 0 {
				return fmt.Errorf("%s seed %d: a world failed its own checks", name, seed)
			}
			out[refKey(w, seed)] = o.Values
		}
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
