package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"
)

// childArgs is what the parent asks one child process to run.
type childArgs struct {
	Workload string
	Seed     int64
	Traced   bool
	Tiny     bool
}

// passResult is one measured pass.
type passResult struct {
	WallNs  int64
	AllocB  uint64
	SetupNs int64 // untraced children only
	Traced  bool
	Worlds  int
	Failed  int
	WorldNs []int64
}

// childResult is what a child process reports back on its stdout.
type childResult struct {
	Counts   counts
	Makespan int64
	// SetupRanks is the number of ranks one setup repetition builds.
	SetupRanks int
	// Warmup is the untimed count pass, verified like the others.
	WarmupWorlds, WarmupFailed int
	// CountWorldNs is the host time of each world of the count pass.
	CountWorldNs []int64
	Passes       []passResult
	Folded       map[string]int64
	Spans        []span
	Notes        []string
}

// span is one timed call into the simulator's public entry points.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	StartNs int64  `json:"start_unix_ns"`
	EndNs   int64  `json:"end_unix_ns"`
}

type spanLog struct{ spans []span }

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Name: name, StartNs: time.Now().UnixNano()})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) { l.spans[id].EndNs = time.Now().UnixNano() }

// guarded runs fn and turns a panic (a process failure, a watchdog
// expiry, a deadlock) into an error, so a failing world is counted and
// the benchmark still prints its metrics.
func guarded(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}

// verify counts the worlds of got that failed: marked bad inside the
// pass, or whose results differ from any of the references. A nil
// reference is skipped; one of the wrong shape fails every world.
func verify(got outcome, refs ...[]int64) int {
	failed := 0
	for i, bad := range got.Bad {
		lo, hi := i*got.PerWorld, (i+1)*got.PerWorld
		for _, ref := range refs {
			if ref == nil {
				continue
			}
			if len(ref) != len(got.Values) || hi > len(ref) {
				bad = true
				continue
			}
			for j := lo; j < hi; j++ {
				if got.Values[j] != ref[j] {
					bad = true
				}
			}
		}
		if bad {
			failed++
		}
	}
	return failed
}

// runChild runs one warm-up count pass and then the workload's
// passesPerChild timed passes, checking every outcome against the count
// pass and the recorded reference.
func runChild(a childArgs, refs refStore) childResult {
	sz := fullSize
	if a.Tiny {
		sz = tinySize
	}
	res := childResult{Folded: map[string]int64{}}
	w, err := lookupWorkload(a.Workload, sz)
	if err != nil {
		res.Notes = append(res.Notes, err.Error())
		return res
	}
	ref := refs.lookup(w, a.Tiny, a.Seed)
	var log spanLog
	root := log.begin("child", -1)
	defer func() { log.end(root); res.Spans = log.spans }()

	var base outcome
	sp := log.begin("run:count", root)
	err = guarded(func() { base, res.Counts = w.count(a.Seed) })
	log.end(sp)
	sp = log.begin("verify", root)
	res.WarmupWorlds = base.worlds()
	res.WarmupFailed = verify(base, ref)
	log.end(sp)
	if err != nil || res.WarmupWorlds == 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("count pass ran no world: %v", err))
		res.WarmupWorlds = max(res.WarmupWorlds, 1)
		res.WarmupFailed = res.WarmupWorlds
		return res
	}
	res.Makespan = base.Makespan
	res.CountWorldNs = base.WorldNs

	for k := 0; k < w.passesPerChild; k++ {
		pr := passResult{Traced: a.Traced, Worlds: base.worlds()}
		if !a.Traced {
			runtime.GC()
			sp := log.begin("setup", root)
			t0 := time.Now()
			res.SetupRanks = w.setup(a.Seed)
			pr.SetupNs = time.Since(t0).Nanoseconds()
			log.end(sp)
		}
		runtime.GC()
		var prof bytes.Buffer
		if a.Traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				res.Notes = append(res.Notes, fmt.Sprintf("cpu profile: %v", err))
				return res
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var got outcome
		sp := log.begin("run", root)
		t0 := time.Now()
		err := guarded(func() { got = w.pass(a.Seed) })
		pr.WallNs = time.Since(t0).Nanoseconds()
		log.end(sp)
		runtime.ReadMemStats(&after)
		if a.Traced {
			pprof.StopCPUProfile()
			if err := foldProfile(prof.Bytes(), res.Folded); err != nil {
				res.Notes = append(res.Notes, fmt.Sprintf("cpu profile: %v", err))
			}
		}
		pr.AllocB = after.TotalAlloc - before.TotalAlloc
		sp = log.begin("verify", root)
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("pass %d: %v", k, err))
			pr.Failed = pr.Worlds
		} else {
			pr.Failed = verify(got, base.Values, ref)
			if got.worlds() != pr.Worlds {
				pr.Failed = pr.Worlds
			}
			pr.WorldNs = got.WorldNs
		}
		log.end(sp)
		res.Passes = append(res.Passes, pr)
	}
	return res
}
