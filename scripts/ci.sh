#!/usr/bin/env bash
# Offline CI gate: build, lint, test, format, and smoke-test the CLI.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Every cargo command below runs with --locked: a [dependencies] edit in
# any crate afabench links would otherwise rewrite Cargo.lock or
# afabench/Cargo.lock silently instead of failing here.

echo "==> cargo build --release --workspace"
cargo build --locked --release --workspace

echo "==> cargo test -q --workspace"
cargo test --locked -q --workspace

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
# Broken or private intra-doc links are invisible to clippy and the
# tests; rustdoc is the only check that sees them.
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> afactl list smoke"
listing="$(./target/release/afactl list)"
count="$(printf '%s\n' "$listing" | tail -n +2 | wc -l)"
if [ "$count" -lt 20 ]; then
    echo "afactl list: expected at least 20 experiments, got $count" >&2
    exit 1
fi
echo "afactl list: $count experiments registered"

echo "==> golden artifact byte-compare (scaled fig06-fig13, serving, fleet, volume, multi-host)"
# Doubles as the experiment smoke test: regenerates the figure
# artifacts (plus the serving, fleet, striped-volume and multi-host
# experiments) at a reduced scale and byte-compares them against the
# committed fixtures.
# Any change in event ordering, RNG streams, model behaviour or JSON
# schema shows up here as a diff.
golden_tmp="$(mktemp -d)"
trap 'rm -rf "$golden_tmp"' EXIT
# An artifact from its first ',"data":' on is the experiment's result
# (no manifest key contains that string); before it is the manifest.
data_of() { grep -o ',"data":.*' "$1" || true; }
for fig in fig06 fig07 fig08 fig09 fig10 fig11 fig12 fig13 tailscale-fanout tailscale-hedge fleet-arrival fleet-failover ull-crossover tailscale multihost; do
    ./target/release/afactl exp "$fig" --seconds 0.25 --ssds 8 --seed 42 \
        --json > "$golden_tmp/$fig.json"
    if ! cmp -s "tests/golden/$fig.json" "$golden_tmp/$fig.json"; then
        echo "golden mismatch: $fig artifact differs from tests/golden/$fig.json" >&2
        if cmp -s <(data_of "tests/golden/$fig.json") <(data_of "$golden_tmp/$fig.json"); then
            echo "only the manifest moved" >&2
        else
            echo "the data object moved" >&2
        fi
        echo "(if the change is intentional, regenerate the fixture with:" >&2
        echo "  ./target/release/afactl exp $fig --seconds 0.25 --ssds 8 --seed 42 --json > tests/golden/$fig.json)" >&2
        exit 1
    fi
    # A healthy model never schedules into the past; the manifest
    # serializes the clamp counter precisely so CI can refuse drift.
    if ! grep -q '"clamped_past_schedules":0' "$golden_tmp/$fig.json"; then
        echo "clamped past-time schedules in $fig run:" >&2
        grep -o '"clamped_past_schedules":[0-9]*' "$golden_tmp/$fig.json" >&2
        exit 1
    fi
    echo "golden OK: $fig"
done

echo "==> fusion on/off byte-compare (ull-crossover)"
# The macro-event fusion fast path must be invisible in the artifacts:
# AFA_NO_FUSION=1 forces every chain down the per-stage path, and the
# JSON must not move by a byte. Only polled and hybrid chains fuse, and
# ull-crossover runs both; interrupt-only experiments such as fig06
# never fuse, so comparing them here would check nothing.
for exp in ull-crossover; do
    AFA_NO_FUSION=1 ./target/release/afactl exp "$exp" --seconds 0.25 --ssds 8 --seed 42 \
        --json > "$golden_tmp/$exp-nofusion.json"
    if ! cmp -s "tests/golden/$exp.json" "$golden_tmp/$exp-nofusion.json"; then
        echo "fusion mismatch: $exp under AFA_NO_FUSION=1 differs from the golden" >&2
        exit 1
    fi
    echo "fusion OK: $exp (AFA_NO_FUSION=1 == golden)"
done

echo "==> afabench tests"
cargo test --locked -q --manifest-path afabench/Cargo.toml

echo "==> afabench digest pins (five workloads, full scale, seed 42)"
# The goldens above run at 0.25 s x 8 SSDs; this is the paper-scale
# exactness check. Each workload's simulation digest must match the pin
# in afabench/provenance.json, and afabench exits 1 on any pin miss or
# failed unit. About 1-2 minutes on a 2-vCPU host.
cargo run --locked --release --manifest-path afabench/Cargo.toml -- run --seed 42

echo "==> whole-system property suite (parallel)"
# The properties run on parallel test threads: each run manifest reads
# only the counters its own run flushed (afa_sim::metrics::capture), and
# a FusionOverride pins only its own thread and the pool workers that
# thread fans out to, so no property's simulations can leak into
# another's artifact or flip its fusion setting.
cargo test --locked --release --features proptest --test proptests

echo "==> fleet-ladder rate band (release, ignored by default)"
# The only wall-clock check left in CI, and a ratio within one process:
# the million-tenant rung's events/sec must stay within [0.8, 1.2] of
# the 10k rung's, best of 3 passes per rung. Each rung takes ~30 ms, so
# a busy shared host can still push the ratio out of the band. Its exact
# work (events and slab bytes per rung) is pinned by the default test
# suite; the event counts of the benchmark's five workloads are pinned
# by the tier-1 test benchmark_workloads_do_pinned_work. Wall-clock cost
# per simulated I/O is afabench's to measure.
# It runs in the environment afabench gives the children it measures:
# glibc's malloc thresholds fixed (afabench's MALLOC_TUNABLES) and, when
# taskset exists, pinned to the highest CPU this shell may use. That
# changes where the step runs, not its band or its estimator.
cargo test --locked --release -p afa-core --lib --no-run
ladder=(cargo test --locked --release -p afa-core --lib -- --ignored million_tenant_rung)
if command -v taskset >/dev/null; then
    cpu="$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status |
        tr ',' '\n' | sed 's/.*-//' | sort -n | tail -n 1)"
    ladder=(taskset -c "$cpu" "${ladder[@]}")
fi
GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=67108864 \
    "${ladder[@]}"

echo "CI OK"
