#!/bin/sh
# Runs the bench-gate benchmark set — the engine event loop, the
# process-layer sleep, signal ping-pong and spawn, the event-queue and
# partition-runner micro-benchmarks, the ALPU device
# micro-benchmarks, the matching-fabric dispatch/overflow and dispatch-
# cache micro-benchmarks, the NIC-geometry cache walk and cache
# construction, the MPI request path (one preposted receive and its
# eager send, with allocs/op and B/op), and the quick Fig. 5 sweep
# cuts — and appends the raw `go test -bench` output to the given file
# (default BENCH_CURRENT.txt). CI compares that output against the committed
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
# Process layer: a solo Sleep loop (the run-ahead path, no park), a
# two-process Signal ping-pong (the park path: a wake event and a
# coroutine switch there and back per operation), and a process's whole
# life (Spawn, run to its idle park, release).
go test -run '^$' -bench 'BenchmarkProcess(Sleep|PingPong|Spawn)$' -benchtime 0.2s -count 3 ./internal/sim | tee -a "$out"
# Time-based benchtime: the queue and partition-window ops are tens to
# hundreds of ns, so a fixed small iteration count would be all timer
# noise.
go test -run '^$' -bench 'BenchmarkQueueMicro/' -benchtime 0.2s -count 3 ./internal/sim | tee -a "$out"
go test -run '^$' -bench 'BenchmarkMicro/' -benchtime 2000x -count 3 ./internal/alpu | tee -a "$out"
# Fabric hot paths: shard routing + overflow promote/demote are a few ns
# to ~100 ns each, so time-based benchtime again.
go test -run '^$' -bench 'BenchmarkFabric' -benchtime 0.2s -count 3 ./internal/match | tee -a "$out"
go test -run '^$' -bench 'BenchmarkCacheDispatch' -benchtime 0.2s -count 3 ./internal/cache | tee -a "$out"
# Cache layer at the NIC geometry: a list walk that fits (all hits) and
# one four times the cache (nearly all misses), plus building a host L2
# and making its first access (the lazy allocation).
go test -run '^$' -bench 'BenchmarkCache(NICWalk|New)$' -benchtime 0.2s -count 3 ./internal/cache | tee -a "$out"
# The request path from mpi through host and nic and back: ~6 µs per
# message, so time-based benchtime; allocs/op shows any per-request
# allocation that creeps back.
go test -run '^$' -bench 'BenchmarkPostedReceive$' -benchtime 0.2s -count 3 ./internal/mpi | tee -a "$out"
go test -run '^$' -bench 'BenchmarkFig5' -benchtime 3x -count 3 . | tee -a "$out"
