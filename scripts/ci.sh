#!/usr/bin/env bash
# The repo's full gate set. Tier-1 (enforced): release build + tests.
# Formatting, clippy (all targets: libs, bins and tests) and rustdoc (every
# warning, e.g. a doc link to a deleted or private item, is an error) are
# pinned so style drift cannot accumulate. The differential suites in
# `cargo test` carry every verdict gate (engine, portfolio, unroll-mode,
# service and opt/satsweep equivalence). The e0_ledger benchmark is its
# own Cargo package; its tests (unit tests plus a smoke run of every
# workload) keep it building against the library crates. e1 runs the paper's example end
# to end and exits nonzero on any regression in it; e2–e7 print the
# paper's tables and must run to completion (about 6.5 s together on
# 2 vCPU). e14 races warm
# service traffic with tracing Off vs Full and exits nonzero if Full
# overhead exceeds 5% or the exported Chrome trace fails its schema
# check; its quick-mode JSON goes to target/ so the committed full-run
# BENCH_obs.json (5-sample medians) is never clobbered by 2-sample gate
# numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --release
cargo test -q
cargo test --manifest-path e0_ledger/Cargo.toml
cargo run --release -p genfv-bench --bin e1_paper_example
for bin in e2_flow1_lemmas e3_flow2_repair e4_throughput_table e5_model_comparison \
    e6_ablations e7_k_sweep; do
    cargo run --release -p genfv-bench --bin "$bin"
done
GENFV_BENCH_JSON=target/ci-BENCH_obs.json \
    cargo run --release -p genfv-bench --bin e14_obs -- --quick
