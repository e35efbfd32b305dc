#!/usr/bin/env bash
# The workspace's one size measure (ISSUE 17's "measured size"): per
# directory, the lines of every `.rs` file that are not blank, not a
# `//` comment (doc comments included) and come before the file's first
# `#[cfg(test)]` — so unit-test modules, which sit last, do not count.
# One row per directory and a total; compare two commits by running it
# in each checkout.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/{core,sim,algo,net,bench,lint}/src vendor examples; do
  lines=$(find "$dir" -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { tests = 0 }
    /#\[cfg\(test\)\]/ { tests = 1 }
    tests || /^[[:space:]]*($|\/\/)/ { next }
    { n++ }
    END { print n + 0 }')
  printf '%-18s %6d\n' "$dir" "$lines"
  total=$((total + lines))
done
printf '%-18s %6d\n' total "$total"
