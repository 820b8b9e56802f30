#!/usr/bin/env bash
# List every `pub fn`, `pub const` and `pub static` in the nine library
# crates whose name appears nowhere outside its crate's `src/` (the
# crate's own `src/bin/` and `tests/` count as outside, as do the root
# `src/`, `tests/`, `examples/` and `benchmark/`), and exit 1 if the list
# is not empty. Such an item should be `pub(crate)`, where rustc's
# `dead_code` (and so clippy `-D warnings`) sees whether anything uses it.
# The match is by name, so a clash can hide an unused item, but an item
# with an outside caller is never listed.
# Usage: scripts/pub_audit.sh
set -euo pipefail
cd "$(dirname "$0")/.."
item='^\s*pub (const |unsafe )*(fn|const|static) [A-Za-z_][A-Za-z0-9_]*'
status=0
for c in sim core flash ftl net host isp trace workloads; do
    outside=$(find src tests examples benchmark crates -name '*.rs' \
        -not -path '*/target/*' \( -not -path "crates/$c/src/*" -o -path "crates/$c/src/bin/*" \))
    names=$(grep -rhoE --include='*.rs' --exclude-dir=bin "$item" "crates/$c/src" \
        | grep -oE '[A-Za-z_][A-Za-z0-9_]*$' | sort -u)
    for name in $names; do
        # shellcheck disable=SC2086 # one word per file path
        if ! grep -qw -- "$name" $outside; then
            echo "crates/$c: $name"
            status=1
        fi
    done
done
exit $status
