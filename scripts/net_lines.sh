#!/usr/bin/env bash
# Prints the lines added, removed and net between `base` and the tracked
# files of the working tree: first under the library and binary sources
# (`crates/*/src` and `src`), then under the tests (`crates/*/tests` and
# `tests`). Code moved from the library into tests shows on both lines.
# Usage: net_lines.sh [base]   (base defaults to HEAD~1)
set -euo pipefail
cd "$(dirname "$0")/.."
base="${1:-HEAD~1}"
count() {
    local what="$1"
    shift
    git diff --numstat "$base" -- "$@" | awk -v base="$base" -v what="$what" '
        $1 != "-" { added += $1; removed += $2 }
        END {
            printf "against %s: +%d -%d, net %+d lines under %s\n",
                base, added, removed, added - removed, what
        }'
}
count "crates/*/src and src" ':(glob)crates/*/src/**' ':(glob)src/**'
count "crates/*/tests and tests" ':(glob)crates/*/tests/**' ':(glob)tests/**'
