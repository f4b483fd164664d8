#!/usr/bin/env bash
# The repo's full gate set. Tier-1 (enforced): release build + tests.
# Formatting and clippy (all targets: lib + tests + benches) are pinned so
# style drift cannot accumulate, and the differential benches run in quick
# mode as end-to-end checks (each exits nonzero on any verdict
# divergence): e8 races incremental vs rebuild sessions, e9 races
# single-solver vs portfolio sessions, e10 races template-stamped vs
# DAG-walk frame encodings, e11 races a warm (session-cached) vs cold
# verification service on repeat traffic, e12 races OptLevel::Full vs
# OptLevel::None prepares (exits nonzero on any verdict regression or if
# the datapath designs stop shrinking), e14 races warm service traffic with
# tracing Off vs Full (exits nonzero if Full overhead exceeds 5% or the
# exported Chrome trace fails its schema check), e15 races
# OptLevel::SatSweep vs OptLevel::Full prepares (exits nonzero on any
# verdict regression, zero datapath merges, or a busted conflict-budget
# envelope). The e0_ledger benchmark is its own Cargo package; its tests
# (unit tests plus a smoke run of every workload) keep it building
# against the library crates. Quick-mode JSON goes to
# target/ so the committed full-run BENCH_*.json files (5-sample medians)
# are never clobbered by 2-sample gate numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q
cargo test --manifest-path e0_ledger/Cargo.toml
GENFV_BENCH_JSON=target/ci-BENCH_incremental.json \
    cargo run --release -p genfv-bench --bin e8_incremental_sessions -- --quick
GENFV_BENCH_JSON=target/ci-BENCH_portfolio.json \
    cargo run --release -p genfv-bench --bin e9_portfolio -- --quick
GENFV_BENCH_JSON=target/ci-BENCH_unroll.json \
    cargo run --release -p genfv-bench --bin e10_template_unroll -- --quick
GENFV_BENCH_JSON=target/ci-BENCH_service.json \
    cargo run --release -p genfv-bench --bin e11_service -- --quick
GENFV_BENCH_JSON=target/ci-BENCH_opt.json \
    cargo run --release -p genfv-bench --bin e12_opt -- --quick
GENFV_BENCH_JSON=target/ci-BENCH_obs.json \
    cargo run --release -p genfv-bench --bin e14_obs -- --quick
GENFV_BENCH_JSON=target/ci-BENCH_satsweep.json \
    cargo run --release -p genfv-bench --bin e15_satsweep -- --quick
