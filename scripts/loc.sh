#!/usr/bin/env bash
# Print lines of Rust per workspace crate (`src/` is the root `bluedbm`
# facade), plus tests/, examples/ and shims/, and their total: every
# `*.rs` file under each directory, unit tests and docs included
# (`find <dir> -name '*.rs' | xargs cat | wc -l`, the count CHANGES.md
# reports).
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for dir in src/ crates/*/ benchmark/ tests/ examples/ shims/; do
    dir=${dir%/}
    lines=$(find "$dir" -name '*.rs' -print0 | xargs -0 cat | wc -l)
    printf '%-16s %7d\n' "${dir#crates/}" "$lines"
    total=$((total + lines))
done
printf '%-16s %7d\n' total "$total"
