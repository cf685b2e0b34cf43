// Package profiling is the wiring the cmds share: the standard
// -cpuprofile/-memprofile flags (EXPERIMENTS.md "Profiling the
// simulator"), "-"-means-stdout output files, and the -serve/-linger
// observability server. It exists so the binaries share one
// implementation of each.
package profiling

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"alpusim/internal/obs"
)

// Start begins CPU profiling to cpuPath (if non-empty) and returns a stop
// function that finishes the CPU profile and writes an allocation profile
// to memPath (if non-empty). Call the stop function before exiting; it is
// safe to call when both paths are empty.
func Start(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
		cpuFile = f
	}
	stop := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recently-freed objects out of the profile
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
			}
		}
	}
	return stop, nil
}

// WriteOutput writes to path via write, with "-" meaning stdout.
func WriteOutput(path string, write func(w io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// MustWriteOutput is WriteOutput for a cmd's output-file flag: it does
// nothing for an empty path, and on failure prints "<cmd>: <flag>: <err>"
// to stderr and exits with status 1.
func MustWriteOutput(cmd, flag, path string, write func(w io.Writer) error) {
	if path == "" {
		return
	}
	if err := WriteOutput(path, write); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %s: %v\n", cmd, flag, err)
		os.Exit(1)
	}
}

// Serve starts the observability server on addr and announces its
// address on stderr under the cmd prefix. The returned stop function,
// called once the run is over, keeps the server up for linger (saying
// "<what> done") and then closes it. With an empty addr Serve starts
// nothing: the server is nil and stop is a no-op.
func Serve(cmd, addr string, o obs.Options, linger time.Duration, what string) (*obs.Server, func(), error) {
	if addr == "" {
		return nil, func() {}, nil
	}
	srv := obs.NewServer(o)
	bound, err := srv.Start(addr)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: observability plane on http://%s\n", cmd, bound)
	stop := func() {
		if linger > 0 {
			fmt.Fprintf(os.Stderr, "%s: %s done; serving for another %v\n", cmd, what, linger)
			time.Sleep(linger)
		}
		srv.Close()
	}
	return srv, stop, nil
}
