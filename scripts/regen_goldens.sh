#!/usr/bin/env bash
# The two golden files under crates/bench/golden/ and the one place
# that knows the command behind each:
#
#   experiments.txt                experiments
#   service_e2e_rounds2_seed1.txt  the benchmark's exact metrics, five
#                                  workloads at --rounds 2 --seed 1
#
#   scripts/regen_goldens.sh           rewrite both
#   scripts/regen_goldens.sh --check   diff each against a fresh run;
#                                      exit 1 if any differs (CI)
#
# Every line in them repeats bit for bit per seed, so a difference is a
# behaviour change: regenerate in the commit that means to move a table,
# and say in CHANGES.md which tables moved. Both modes name them: one
# "moved:" line per golden that differs, listing the `== E… ==` tables
# (or benchmark workloads) whose section is not what the file held.
set -euo pipefail

check=0
case ${1-} in
  '') ;;
  --check) check=1 ;;
  *) sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2 ;;
esac
[[ $# -le 1 ]] || { echo "regen_goldens: one argument at most" >&2; exit 2; }

cd "$(dirname "$0")/.."
golden=crates/bench/golden
bench=crates/bench/src/bin/service_e2e/Cargo.toml

experiments() {
  cargo run --release --quiet -p rfd-bench --bin experiments -- "$@"
}

service_e2e() {
  local w
  for w in steady_n5 steady_n16 backlog_n5 lossy_n5 churn_n5; do
    cargo run --release --quiet --offline --manifest-path "$bench" -- \
      --workload "$w" --rounds 2 --seed 1 --trace 0
  done | grep -E '"metric":"(decisions_per_virtual_s|latency_virtual_ms_p(50|99|999)|datagrams_per_decision|bytes_per_decision)"'
}

# The sections of golden FILE that differ from the fresh run on stdin,
# by short name: a section is an `== E… ==` heading and the lines under
# it, or the lines of one benchmark workload.
moved() { # file
  awk '
    FNR == 1 { side++; cur = "" }
    match($0, /^== E[0-9]+[a-z]* /) { cur = substr($0, 4, RLENGTH - 4) }
    match($0, /"workload":"[^"]*"/) { cur = substr($0, RSTART + 12, RLENGTH - 13) }
    cur != "" { if (!(cur in seen)) { seen[cur]; order[++n] = cur } body[side, cur] = body[side, cur] $0 "\n" }
    END { for (i = 1; i <= n; i++) if (body[1, order[i]] != body[2, order[i]]) printf " %s", order[i] }
  ' "$1" -
}

status=0
one() { # file command...
  local file=$golden/$1 out names
  shift
  # Captured first: a run that dies half way leaves the old file.
  out=$("$@")
  if ((check)); then
    diff <(printf '%s\n' "$out") "$file" && return
    echo "regen_goldens: $file differs" >&2
    status=1
  else
    echo "regen_goldens: wrote $file" >&2
  fi
  names=$(printf '%s\n' "$out" | moved "$file")
  echo "regen_goldens: $file moved:${names:- nothing}" >&2
  ((check)) || printf '%s\n' "$out" >"$file"
}

one experiments.txt experiments
one service_e2e_rounds2_seed1.txt service_e2e
exit $status
