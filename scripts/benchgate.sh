#!/bin/sh
# Runs the bench-gate benchmark set — the engine event loop, the
# process-layer sleep and signal ping-pong, the event-queue and
# partition-runner micro-benchmarks, the ALPU device
# micro-benchmarks, the matching-fabric dispatch/overflow and dispatch-
# cache micro-benchmarks, and the quick Fig. 5 sweep cuts — and appends
# the raw `go test -bench` output to the given file (default
# BENCH_CURRENT.txt). CI compares that output against the committed
# BENCH_BASELINE.txt with cmd/benchgate; regenerate the baseline by
# running this script with BENCH_BASELINE.txt as the argument on the
# reference machine and committing the result.
#
# -count 3 runs every benchmark three times; the gate keeps the minimum,
# which is the least-noise estimate of true cost.
set -e
out="${1:-BENCH_CURRENT.txt}"
: > "$out"
go test -run '^$' -bench 'BenchmarkEngineScheduleStep$' -benchtime 1s -count 3 ./internal/sim | tee -a "$out"
# Process layer: a solo Sleep loop (the run-ahead path, no park) and a
# two-process Signal ping-pong (the park path: a wake event and a
# goroutine handoff there and back per operation).
go test -run '^$' -bench 'BenchmarkProcess(Sleep|PingPong)$' -benchtime 0.2s -count 3 ./internal/sim | tee -a "$out"
# Time-based benchtime: the queue and partition-window ops are tens to
# hundreds of ns, so a fixed small iteration count would be all timer
# noise.
go test -run '^$' -bench 'BenchmarkQueueMicro/' -benchtime 0.2s -count 3 ./internal/sim | tee -a "$out"
go test -run '^$' -bench 'BenchmarkMicro/' -benchtime 2000x -count 3 ./internal/alpu | tee -a "$out"
# Fabric hot paths: shard routing + overflow promote/demote are a few ns
# to ~100 ns each, so time-based benchtime again.
go test -run '^$' -bench 'BenchmarkFabric' -benchtime 0.2s -count 3 ./internal/match | tee -a "$out"
go test -run '^$' -bench 'BenchmarkCacheDispatch' -benchtime 0.2s -count 3 ./internal/cache | tee -a "$out"
go test -run '^$' -bench 'BenchmarkFig5' -benchtime 3x -count 3 . | tee -a "$out"
