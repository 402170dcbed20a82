#!/usr/bin/env bash
# Prints the lines added, removed and net under the library and binary
# sources (`crates/*/src` and `src`) between `base` and the tracked files
# of the working tree.
# Usage: net_lines.sh [base]   (base defaults to HEAD~1)
set -euo pipefail
cd "$(dirname "$0")/.."
base="${1:-HEAD~1}"
git diff --numstat "$base" -- ':(glob)crates/*/src/**' ':(glob)src/**' | awk -v base="$base" '
    $1 != "-" { added += $1; removed += $2 }
    END {
        printf "against %s: +%d -%d, net %+d lines under crates/*/src and src\n",
            base, added, removed, added - removed
    }'
