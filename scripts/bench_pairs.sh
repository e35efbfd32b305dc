#!/usr/bin/env bash
# Paired runs of two prebuilt `service_e2e` binaries: A (the parent) and
# B (the change), alternating which side goes first, over the five
# benchmark workloads. Every run's output is appended to OUT/a.jsonl or
# OUT/b.jsonl, and the two capture files are handed to
# `service_e2e --compare`, whose exit status (1 on a regression) is this
# script's.
#
#   scripts/bench_pairs.sh A B [--pairs 10] [--seconds 15 | --rounds R]
#                              [--seed 1] [--out DIR]
#
# Build each side once, into its own target directory, and pass the two
# executables:
#
#   cargo build --release --offline \
#     --manifest-path crates/bench/src/bin/service_e2e/Cargo.toml \
#     --target-dir /tmp/b && B=/tmp/b/release/service_e2e
#
# `--rounds R` swaps the wall-clock budget for a fixed round count (the
# CI smoke step: one pair of one round proves the loop still runs).
set -euo pipefail

usage() {
  sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[[ $# -ge 2 ]] || usage
a=$1 b=$2
shift 2
pairs=10 budget=(--seconds 15) seed=1 out=
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || usage
  case $1 in
    --pairs) pairs=$2 ;;
    --seconds) budget=(--seconds "$2") ;;
    --rounds) budget=(--rounds "$2") ;;
    --seed) seed=$2 ;;
    --out) out=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[[ -x $a && -x $b ]] || { echo "bench_pairs: $a and $b must be executables" >&2; exit 2; }
out=${out:-$(mktemp -d)}
mkdir -p "$out"

run() { # side workload
  local bin=$a
  [[ $1 == b ]] && bin=$b
  "$bin" --workload "$2" --seed "$seed" "${budget[@]}" --trace 0 >>"$out/$1.jsonl"
}

for workload in steady_n5 steady_n16 backlog_n5 lossy_n5 churn_n5; do
  for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then order=(a b); else order=(b a); fi
    for side in "${order[@]}"; do run "$side" "$workload"; done
    echo "$workload: pair $pair/$pairs (${order[*]})" >&2
  done
done

echo "captures: $out/a.jsonl $out/b.jsonl" >&2
"$b" --compare "$out/a.jsonl" "$out/b.jsonl"
