#!/usr/bin/env bash
# The three golden files under crates/bench/golden/ and the one place
# that knows the command behind each:
#
#   experiments_quick.txt          experiments --quick
#   experiments_full.txt           experiments
#   service_e2e_rounds2_seed1.txt  the benchmark's exact metrics, five
#                                  workloads at --rounds 2 --seed 1
#
#   scripts/regen_goldens.sh           rewrite all three
#   scripts/regen_goldens.sh --check   diff each against a fresh run;
#                                      exit 1 if any differs (CI)
#
# Every line in them repeats bit for bit per seed, so a difference is a
# behaviour change: regenerate in the commit that means to move a table,
# and say in CHANGES.md which tables moved.
set -euo pipefail

check=0
case ${1-} in
  '') ;;
  --check) check=1 ;;
  *) sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2 ;;
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

status=0
one() { # file command...
  local file=$golden/$1 out
  shift
  if ((check)); then
    "$@" | diff - "$file" || { echo "regen_goldens: $file differs" >&2; status=1; }
  else
    # Captured first: a run that dies half way leaves the old file.
    out=$("$@")
    printf '%s\n' "$out" >"$file"
    echo "regen_goldens: wrote $file" >&2
  fi
}

one experiments_quick.txt experiments --quick
one experiments_full.txt experiments
one service_e2e_rounds2_seed1.txt service_e2e
exit $status
