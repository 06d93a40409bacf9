#!/usr/bin/env bash
# Offline CI gate: build, lint, test, format, and smoke-test the CLI.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

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

echo "==> golden artifact byte-compare (scaled fig06-fig13 + request-serving)"
# Doubles as the experiment smoke test: regenerates the figure
# artifacts (plus the frontend request-serving experiments) at a
# reduced scale and byte-compares them against the committed fixtures.
# Any change in event ordering, RNG streams, model behaviour or JSON
# schema shows up here as a diff.
golden_tmp="$(mktemp -d)"
trap 'rm -rf "$golden_tmp"' EXIT
for fig in fig06 fig07 fig08 fig09 fig10 fig11 fig12 fig13 tailscale-fanout tailscale-hedge fleet-arrival fleet-failover ull-crossover; do
    ./target/release/afactl exp "$fig" --seconds 0.25 --ssds 8 --seed 42 \
        --json > "$golden_tmp/$fig.json"
    if ! cmp -s "tests/golden/$fig.json" "$golden_tmp/$fig.json"; then
        echo "golden mismatch: $fig artifact differs from tests/golden/$fig.json" >&2
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
cargo test -q --manifest-path afabench/Cargo.toml

echo "==> afabench digest pins (five workloads, full scale, seed 42)"
# The goldens above run at 0.25 s x 8 SSDs; this is the paper-scale
# exactness check. Each workload's simulation digest must match the pin
# in afabench/provenance.json, and afabench exits 1 on any pin miss or
# failed unit. About 1-2 minutes on a 2-vCPU host.
cargo run --release --manifest-path afabench/Cargo.toml -- run --seed 42

echo "==> whole-system property suite (one test thread)"
# The properties share process-wide state: the FusionOverride guard and
# the afa_sim::metrics totals the run manifest reports as deltas. Run
# concurrently, one property's simulations leak into another's
# artifact, so the suite runs serially.
cargo test --release --features proptest --test proptests -- --test-threads 1

echo "==> desperf regression check (pinned-scale events/sec floors)"
# Fails if DES throughput fell more than 20% below the most recent
# committed BENCH_desperf.json entry: fig06 at 64 SSDs, then the fleet
# ladder (plus its slab ceiling and 1M/10k rate band), the
# fleet-failover grid and the ull-crossover grid. The floors are
# wall-clock figures from the host that committed the entry, so a slow
# or shared host can fail them without a regression. The event-count
# budget of polled fusion is checked exactly by the tier-1 test
# polled_chains_fuse_and_interrupt_chains_do_not.
./target/release/desperf --check

echo "CI OK"
