#!/usr/bin/env bash
# Net non-test Rust lines, per crate and in total.
#
# Counts every `.rs` file under `crates/*/src` and the root `src/`: the
# lines before the file's first `#[cfg(test)]`, blank lines excluded.
# Informational only — it prints and never gates anything.
#
# Usage: scripts/loc.sh   (from anywhere inside the repository)
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | xargs -0 -r awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && NF > 0 { n++ }
        END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    n=$(count "$dir")
    total=$((total + n))
    printf '%-24s %7d\n' "${dir%/src}" "$n"
done
printf '%-24s %7d\n' total "$total"
