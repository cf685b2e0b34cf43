// Command perfbench is the repository's benchmark. It drives the simulator
// from outside, through its public entry points, on four workloads that
// load different layers (see README.md), checks every simulated result,
// and prints host-time end-to-end metrics or, with --trace 1, per-layer
// metrics from a CPU-profiled run.
//
//	bash perfbench/run.sh --workload posted-sw --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: posted-sw, alpu-resident, tenancy-fabric or halo-lossy")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 15, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 runs the CPU-profiled pass and prints per-layer metrics")
	record := fs.String("record", "", "run every workload once at the recorded seeds and write the reference to this file")
	child := fs.String("child", "", "internal: run one child process with these JSON arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return childMain(*child, stdout, stderr)
	}
	if *record != "" {
		if err := recordRefs(*record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if _, err := lookupWorkload(*workload, fullSize); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	opt := options{
		workload: *workload, seed: *seed, trace: *trace == 1,
		budget: time.Duration(*seconds) * time.Second,
	}
	rep := measure(opt, func(a childArgs) (childResult, error) { return execChild(exe, a, stderr) })
	rep.print(stdout, opt)
	if opt.trace {
		path := filepath.Join(".bench_build", "perfbench",
			fmt.Sprintf("spans-%s-seed%d.json", opt.workload, opt.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench: spans:", err)
		} else {
			fmt.Fprintln(stderr, "perfbench: spans written to", path)
		}
	}
	return 0
}

// childTimeout bounds one child process; a healthy one takes a few
// seconds.
const childTimeout = 90 * time.Second

// execChild runs one child process of this binary and decodes its report.
func execChild(exe string, a childArgs, stderr io.Writer) (childResult, error) {
	arg, err := json.Marshal(a)
	if err != nil {
		return childResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("child %s: %w", arg, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return childResult{}, fmt.Errorf("child %s: %w", arg, err)
	}
	return res, nil
}

func childMain(arg string, stdout, stderr io.Writer) int {
	var a childArgs
	if err := json.Unmarshal([]byte(arg), &a); err != nil {
		fmt.Fprintln(stderr, "perfbench: child arguments:", err)
		return 2
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := runChild(a, refs)
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// writeSpans writes the run's spans as a JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
