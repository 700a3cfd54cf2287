#!/usr/bin/env bash
# Non-test lines per crate: for every crates/*/src/**/*.rs, the lines before
# its first `#[cfg(test)]` at the start of a line, summed per crate and in
# total. This is the figure CHANGES.md entries quote as "non-test lines".
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for crate in crates/*/; do
    lines=$(find "${crate}src" -name '*.rs' -print0 |
        xargs -0 awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }')
    printf '%-10s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
