#!/bin/sh
# Prints the project's line counts, non-blank, non-`//` lines of the
# tracked Rust files outside the offline shims (crates/compat) and the
# benchmark package (perfbench):
#   all:      every such line;
#   non-test: the text before each file's first `#[cfg(test)]`, with
#             files under a `tests/` or `benches/` directory left out.
# Run from anywhere inside the repo.
set -eu
cd "$(git rev-parse --show-toplevel)"
files=$(git ls-files '*.rs' | grep -v '^crates/compat/\|^perfbench/')
echo "all: $(echo "$files" | xargs grep -v -E '^\s*(//|$)' | wc -l)"
echo "non-test: $(echo "$files" | grep -v '\(^\|/\)\(tests\|benches\)/' | xargs awk '
    FNR == 1 { test = 0 }
    /^[ \t]*#\[cfg\(test\)\]/ { test = 1 }
    !test && !/^[ \t]*(\/\/|$)/
' | wc -l)"
