#!/bin/sh
# Run the PR-tracked benchmark set: the interpreter hot loop, the null
# system call (wall-clock and virtual kernel-cycles/call), the null RPC
# with the IPC direct-handoff fast path on vs off, the IPC round-trip
# under every kernel configuration, the multiprocessor IPC-scaling
# matrix (CPU count x lock model), the 1-64 CPU lock-model crossover
# sweep (big vs fine; BENCH_PR8.json archives the three-curve sweep that
# still had a per-subsystem model), the bulk-IPC bandwidth sweep with
# zero-copy frame sharing on vs off, the NIC netload sweep
# (interrupt coalescing x zero-copy replies, then CPUs x lock models),
# and the pre-copy live-migration cell (simulated downtime vs the
# stop-and-copy freeze the same space would have eaten).
#
# Usage: scripts/bench.sh [benchtime]
#   benchtime   value for -benchtime (default 1s; use e.g. 5x for smoke)
#
# Two kinds of "fast path" with opposite invariants:
#  - Simulator fast paths (software TLB, decode cache) are host-side
#    caches and must be invisible to virtual time: kernel-cycles/call in
#    BenchmarkNullSyscall must NOT move across simulator changes (see
#    ARCHITECTURE.md, "Simulator fast paths"). Only ns/op may change.
#  - The IPC direct-handoff fast path is an architectural change and
#    *intentionally* moves virtual time; BenchmarkNullRPC tracks the
#    on/off kernel-cycle comparison, and the flukebench -nullrpc run
#    below prints the same comparison as a table. User-visible state
#    must stay identical either way (TestIPCFastPathEquivalence).
#    Zero-copy bulk IPC is the same kind of change one level up:
#    BenchmarkBandwidth and the flukebench -bandwidth sweep track the
#    on/off bandwidth comparison (TestZeroCopyEquivalence pins state).
#
# The cycle profiler is a simulator-side observer: BenchmarkInterpreter
# vs BenchmarkInterpreterProfiled measures its host-side ns/op overhead,
# and virtual time must not move at all (TestProfilerEquivalence pins
# bit-identical final state with the profiler on vs off).
#
# The threaded-code tier (fused superinstruction blocks) is a simulator
# fast path too: BenchmarkInterpreter vs BenchmarkInterpreterDecodeCache
# is the fused-vs-decode-cache host-time ratio, and the StraightLine /
# BranchHeavy / SelfModifying variants cover the tier's best, worst, and
# adversarial guest shapes. Virtual time must not move with the tier on
# or off (TestThreadedCodeEquivalence); the flukebench -interp table
# prints the same three shapes against all three tiers.
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-1s}"
go test -run='^$' \
    -bench='BenchmarkInterpreter$|BenchmarkInterpreterProfiled$|BenchmarkInterpreterDecodeCache$|BenchmarkInterpreterStraightLine$|BenchmarkInterpreterBranchHeavy$|BenchmarkInterpreterSelfModifying$|BenchmarkNullSyscall$|BenchmarkNullRPC$|BenchmarkBandwidth$|BenchmarkIPCRoundTrip$|BenchmarkIPCScaling$|BenchmarkNetload$|BenchmarkMigrate$' \
    -benchtime="$BENCHTIME" .

# Stats snapshot cost on a 64-CPU fine-model kernel: the StatsInto row
# must report 0 allocs/op (the aggregation scans reuse pre-sized
# buffers; TestStatsIntoAllocs pins the zero).
go test -run='^$' -bench='BenchmarkStatsSnapshot' -benchtime="$BENCHTIME" ./internal/core/

echo
go run ./cmd/flukebench -interp -fast
echo
go run ./cmd/flukebench -nullrpc
echo
go run ./cmd/flukebench -bandwidth
echo
go run ./cmd/flukebench -crossover
echo
go run ./cmd/flukebench -netload
echo
go run ./cmd/flukebench -migrate -fast
echo
exec go run ./cmd/flukebench -critpath -fast
