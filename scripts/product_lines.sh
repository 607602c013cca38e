#!/usr/bin/env bash
# Product lines: non-test, non-comment, non-blank lines of Rust source.
#
#   scripts/product_lines.sh                 # one line per crate + total
#   scripts/product_lines.sh PATH...         # one line per file/dir + total
#
# A file's product lines are those before its first `#[cfg(test)]` that are
# neither blank nor a `//` comment (doc comments included). Directories are
# searched for `*.rs` outside `tests/`, `benches/` and `examples/`. The
# numbers simplicity PRs quote in CHANGES.md come from this script.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count PATH -> product lines of one file or of a directory's sources
    if [ -d "$1" ]; then
        find "$1" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
            -not -path '*/examples/*' -not -path '*/target/*' -print0
    else
        printf '%s\0' "$1"
    fi | xargs -0 -r awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

if [ "$#" -eq 0 ]; then
    set -- crates/*/src
fi
total=0
for path in "$@"; do
    n=$(count "$path")
    printf '%7d  %s\n' "$n" "$path"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
