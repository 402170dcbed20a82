#!/usr/bin/env bash
# Regenerates BENCH_sim.json — the simulator's same-run perf gate: each
# section times a production path against its retained baseline in the
# same process, at one thread and at all threads, and the run fails when
# a guarded ratio drops below its floor. Usage: bench_sim.sh [output-path]
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release --offline -p qdp-bench --bin bench_sim -- "${1:-BENCH_sim.json}"
