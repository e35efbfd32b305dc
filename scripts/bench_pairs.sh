#!/usr/bin/env bash
# Paired runs of two prebuilt `service_e2e` binaries: A (the parent) and
# B (the change), alternating which side goes first, over the five
# benchmark workloads. Every run's output is appended to OUT/a.jsonl or
# OUT/b.jsonl, and the two capture files are handed to
# `service_e2e --compare`, whose exit status (1 on a regression) is this
# script's. After the comparison it prints, per workload and end-to-end
# metric of BENCHMARK.json, the figures a claim is judged by: the value
# of every pair in run order, each side's median and quartiles, and how
# many pairs B won — by the metric's `better` direction there, so for a
# latency row a win is a lower value.
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
  sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//' >&2
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
status=0
"$b" --compare "$out/a.jsonl" "$out/b.jsonl" || status=$?

# The claim rule's figures. Pair k of a workload is the k-th run of it
# in each capture file; quartiles interpolate linearly between order
# statistics; a tie is a win for neither side.
awk '
  function sort(v, n,   i, j, t) {
    for (i = 2; i <= n; i++) {
      t = v[i]
      for (j = i - 1; j > 0 && v[j] > t; j--) v[j + 1] = v[j]
      v[j + 1] = t
    }
  }
  function quantile(v, n, p,   h, l) {
    h = (n - 1) * p + 1
    l = int(h)
    return l >= n ? v[n] : v[l] + (h - l) * (v[l + 1] - v[l])
  }
  function summary(v, n) {
    sort(v, n)
    return sprintf("median %g [q1 %g, q3 %g]", quantile(v, n, 0.5),
      quantile(v, n, 0.25), quantile(v, n, 0.75))
  }
  function field(key,   s) {
    if (!match($0, "\"" key "\": *\"?[^\",}]*")) return ""
    s = substr($0, RSTART, RLENGTH)
    sub(/^[^:]*: *"?/, "", s)
    return s
  }
  # BENCHMARK.json: the end-to-end metric names, in order, and which
  # way each is better.
  FILENAME == ARGV[1] {
    if (/"end_to_end"/) e2e = 1
    else if (/"per_layer"/) e2e = 0
    else if (e2e && field("name") != "") metric[++metrics] = field("name")
    else if (e2e && field("better") != "") better[metric[metrics]] = field("better")
    next
  }
  FNR == 1 { side++ }
  /"metric":"/ {
    m = field("metric")
    if (!(m in better)) next
    w = field("workload")
    if (!((1, w) in seen || (2, w) in seen)) order[++workloads] = w
    seen[side, w] = 1
    runs[side, w, m]++
    value[side, w, m, runs[side, w, m]] = field("value") + 0
  }
  END {
    print "claim figures by pair, A -> B in run order"
    for (i = 1; i <= workloads; i++) {
      w = order[i]
      for (j = 1; j <= metrics; j++) {
        m = metric[j]
        pairs = runs[1, w, m] < runs[2, w, m] ? runs[1, w, m] : runs[2, w, m]
        if (pairs == 0) continue
        split("", a)
        split("", b)
        line = ""
        wins = 0
        for (k = 1; k <= pairs; k++) {
          a[k] = value[1, w, m, k]
          b[k] = value[2, w, m, k]
          wins += (better[m] == "lower") ? (b[k] < a[k]) : (b[k] > a[k])
          line = line sprintf("%s%g -> %g", k > 1 ? ", " : "", a[k], b[k])
        }
        printf "%-10s  %-24s  %s\n", w, m, line
        printf "%-10s  %-24s  A %s  B %s  B wins %d/%d (%s)\n", w, m,
          summary(a, pairs), summary(b, pairs), wins, pairs, better[m]
      }
    }
  }
' "$(dirname "$0")/../BENCHMARK.json" "$out/a.jsonl" "$out/b.jsonl"
exit "$status"
