#!/usr/bin/env bash
# Prints the lines added, removed and net between `base` and the tracked
# files of the working tree: first under the library and binary sources
# (`crates/*/src` and `src`), then under the tests (`crates/*/tests` and
# `tests`). Code moved from the library into tests shows on both lines.
# Last it prints the number of `pub fn` items under the sources at `base`
# and in the working tree: the public surface.
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
sources=(':(glob)crates/*/src/**' ':(glob)src/**')
count "crates/*/src and src" "${sources[@]}"
count "crates/*/tests and tests" ':(glob)crates/*/tests/**' ':(glob)tests/**'
pub_fns() {
    { git grep -hE '^[[:space:]]*pub (const |unsafe )*fn ' "$@" -- "${sources[@]}" || true; } | wc -l
}
at_base=$(pub_fns "$base")
in_tree=$(pub_fns)
printf "pub fn under crates/*/src and src: %d at %s, %d in the working tree (%+d)\n" \
    "$at_base" "$base" "$in_tree" "$((in_tree - at_base))"
