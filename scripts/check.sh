#!/usr/bin/env bash
# Repo verification gate: format, lints, build, tests.
#
#   scripts/check.sh              # run everything
#   scripts/check.sh --fast       # skip the release build (debug tests only)
#   CHECK_FULL=1 scripts/check.sh # + release conformance stage, 4x budget
#
# This is the bar every change must clear before merging. Tier-1 is the
# build + test pair; fmt and clippy (warnings denied) keep the tree clean.
# A loopback service smoke stage drives the vbp-service daemon over real
# TCP (two datasets, twenty variants, cold and warm rounds, plus a
# dual-protocol pass proving HTTP and line submissions label-isomorphic
# on one daemon) after the
# workspace test pass, and a chaos stage replays 24 seeded fault
# schedules (torn writes, garbage/oversized lines, mid-request
# disconnects, injected engine panics) against live daemons, asserting
# consistent counters, label-isomorphic replies, and bounded drains
# after every schedule — plus 8 streaming schedules mixing APPEND/WATCH
# into the fault soup under an exact append ledger, and 8 HTTP schedules
# interleaving hostile HTTP traffic (garbage heads, oversized request
# lines, truncations, torn writes, malformed appends) with healthy
# submissions on both doors at once. A streaming-
# equivalence stage replays seeded APPEND/SUBMIT/WATCH interleavings and
# pins every post-append result to a from-scratch batch run. An HTTP
# property stage fuzzes the gateway's framing (byte soup, truncations,
# keep-alive reuse, cap violations) against a strict response-stream
# oracle. Every service stage is wrapped in a hard wall
# clock so a wedged daemon fails the gate instead of hanging it. A
# shard metamorphic stage pins shard-merged DBSCAN labels to the
# single-shard output across shard x thread grids under its own hard
# timeout. A
# trace-overhead stage (skipped under --fast) replays the
# engine_contention workload with tracing off/spans/full interleaved and
# fails if the disabled-mode A/A delta exceeds max(1%, measured noise).
# A streaming-append gate (skipped under --fast) grows a small dataset
# through APPEND batches and fails if a from-scratch query on the
# appended index is slower than on a fresh prepare of the same points by
# more than max(10%, measured noise).
# A store property stage replays the on-disk reader totality suite (byte
# soup, truncations, single-bit flips against the two-layer CRCs), and a
# store-restore gate (skipped under --fast) fails unless a warm restore
# of a 100k-point snapshot is at least 10x faster than a cold prepare.
# An http_load gate (skipped under --fast) holds 1000 concurrent
# keep-alive HTTP clients against an in-process daemon and fails on any
# admission-invariant violation, writing jobs/sec and trace-histogram
# p99 to results/http_load.txt.
# A router equivalence stage proves the consistent-hash router preserves
# the single-daemon HTTP surface: routed submissions land on the ring
# owner with label-isomorphic replies, fanned-out /v1/stats and /metrics
# equal the per-backend sums at rest, and /healthz degrades by quorum as
# backends die. A router chaos stage replays 8 seeded schedules that
# kill one of two backends mid-stream (overlapped in-flight requests,
# garbage heads, torn writes) and asserts the survivor's shard serves
# with zero failures while the dead shard answers typed 503 unavailable
# with Retry-After, the router's request ledger stays balanced, and
# merged stats stay consistent. A router_load gate (skipped under
# --fast) measures the same engine-bound workload against a direct
# daemon, router+1, and router+2 deployments, enforces the kill-phase
# semantics and a zero-violation admission invariant, and requires 2
# backends >= 1.6x direct throughput wherever more than one CPU exists
# (on one CPU the scale gate is waived and recorded; see EXPERIMENTS.md);
# the table lands in results/router_load.txt.
# CHECK_FULL=1 additionally re-runs the differential suites (cross-backend
# ε-neighborhood conformance, metamorphic reuse equivalence) in release
# mode with a 4x-larger case budget and widens the chaos sweep to 96
# seeded schedules (24 streaming, 24 HTTP) plus the enlarged
# streaming-equivalence
# sweep (VBP_STREAM_FULL=1) and a widened router chaos sweep (24 seeded
# backend-kill schedules, VBP_CHAOS_FULL=1); the default run already
# executes the fast budgets
# via the workspace test pass, so tier-1 runtime is unchanged.

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ $fast -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> service loopback smoke (2 datasets x 20 variants over TCP)"
timeout 300 cargo test -q -p vbp-service --test loopback_smoke

echo "==> service chaos (24 fault + 8 streaming + 8 HTTP schedules, panic containment)"
timeout 600 cargo test -q -p vbp-service --test chaos

echo "==> streaming equivalence (APPEND/SUBMIT/WATCH vs batch truth)"
timeout 300 cargo test -q -p vbp-service --test streaming_equivalence

echo "==> service protocol properties + stats consistency"
timeout 300 cargo test -q -p vbp-service --test protocol_props
timeout 300 cargo test -q -p vbp-service --test stats_consistency

echo "==> http gateway properties (framing fuzz vs response-stream oracle)"
timeout 300 cargo test -q -p vbp-service --test http_props

echo "==> router equivalence (ring placement, merged stats/metrics, quorum)"
timeout 300 cargo test -q -p vbp-service --test router_equivalence

echo "==> router chaos (8 seeded backend-kill schedules, shard degradation)"
timeout 600 cargo test -q -p vbp-service --test router_chaos

echo "==> shard metamorphic suite (shard-merged labels vs single-shard)"
timeout 300 cargo test -q -p vbp-dbscan --test sharded_metamorphic

echo "==> store reader totality properties (soup, truncations, bit flips)"
timeout 300 cargo test -q -p vbp-store

if [[ $fast -eq 0 ]]; then
  echo "==> trace overhead gate (engine_contention workload, off vs on)"
  timeout 600 cargo run --release -q -p vbp-bench --bin trace_overhead -- \
    --points 3000 --trials 6 --threads 2

  echo "==> streaming append gate (appended index queries like a fresh prepare)"
  timeout 600 cargo run --release -q -p vbp-bench --bin streaming_throughput -- \
    --points 4000 --trials 9 32 8

  echo "==> store restore gate (warm restore >= 10x cold prepare)"
  timeout 600 cargo run --release -q -p vbp-bench --bin store_restore -- \
    --points 100000 results/store_restore.txt

  echo "==> http load gate (1000 keep-alive clients, invariant under load)"
  timeout 600 cargo run --release -q -p vbp-bench --bin http_load -- \
    results/http_load.txt

  echo "==> router load gate (direct vs router x1 vs router x2, kill phase)"
  timeout 600 cargo run --release -q -p vbp-bench --bin router_load -- \
    results/router_load.txt
fi

if [[ "${CHECK_FULL:-0}" != "0" ]]; then
  echo "==> conformance (release, VBP_CONFORMANCE_FULL=1)"
  VBP_CONFORMANCE_FULL=1 cargo test -q --release -p vbp-rtree --test conformance
  VBP_CONFORMANCE_FULL=1 cargo test -q --release -p variantdbscan --test metamorphic_reuse
  VBP_CONFORMANCE_FULL=1 timeout 600 cargo test -q --release -p vbp-dbscan --test sharded_metamorphic
  echo "==> chaos extended sweep (release, VBP_CHAOS_FULL=1: 96 + 24 + 24 schedules)"
  VBP_CHAOS_FULL=1 timeout 900 cargo test -q --release -p vbp-service --test chaos
  echo "==> streaming equivalence extended sweep (release, VBP_STREAM_FULL=1)"
  VBP_STREAM_FULL=1 timeout 900 cargo test -q --release -p vbp-service --test streaming_equivalence
  echo "==> router chaos extended sweep (release, VBP_CHAOS_FULL=1: 24 schedules)"
  VBP_CHAOS_FULL=1 timeout 900 cargo test -q --release -p vbp-service --test router_chaos
fi

echo "All checks passed."
