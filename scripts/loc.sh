#!/usr/bin/env bash
# Net Rust line count of the working tree against a base revision.
#
#   scripts/loc.sh            # against HEAD
#   scripts/loc.sh BASE       # against any commit, e.g. the parent: HEAD~1
#
# Prints added, removed and net `.rs` lines per top-level crate
# (`crates/<name>`; other top-level dirs such as `src`, `tests`,
# `examples` count as one group each), then the total. New files count
# once they are staged with `git add`.

set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:-HEAD}"
# Binary files report "-" for both counts; awk reads them as 0.
stat="$(git diff --numstat --no-renames "$base" -- '*.rs')"
row='%-20s %8d %8d %+8d\n'
printf '%-20s %8s %8s %8s\n' group added removed net
awk -v row="$row" '
  NF == 3 {
    split($3, p, "/")
    group = (p[1] == "crates") ? "crates/" p[2] : p[1]
    add[group] += $1; del[group] += $2
  }
  END { for (g in add) printf row, g, add[g], del[g], add[g] - del[g] }' <<<"$stat" | sort
awk -v row="$row" '
  NF == 3 { add += $1; del += $2 }
  END { printf row, "total", add, del, add - del }' <<<"$stat"
