#!/bin/sh
# Prints the project's line count: non-blank, non-`//` lines of the
# tracked Rust files outside the offline shims (crates/compat) and the
# benchmark package (perfbench). Run from anywhere inside the repo.
set -eu
cd "$(git rev-parse --show-toplevel)"
git ls-files '*.rs' | grep -v '^crates/compat/\|^perfbench/' | xargs grep -v -E '^\s*(//|$)' | wc -l
