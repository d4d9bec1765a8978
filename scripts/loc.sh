#!/usr/bin/env bash
# Non-blank Rust lines per crate, split into program and test lines.
#
# Usage:
#   scripts/loc.sh [REPO_ROOT]    # defaults to this script's repository
#
# A line is a test line when its file sits under a `tests/` directory or
# when it lies inside a `#[cfg(test)]` module (from the attribute to the
# module's closing brace). Everything else — library code, binaries,
# benches, examples and doc comments — is program code. Blank lines are
# not counted. The last row sums `crates/` and `vendor/`.
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

# Prints "<program> <test>" for every .rs file under the given paths.
count() {
    find "$@" -name '*.rs' -not -path '*/target/*' -print0 2>/dev/null |
        xargs -0 -r awk '
        FNR == 1 { intest = 0; pending = 0; docs = 0; testfile = (FILENAME ~ /(^|\/)tests\//) }
        /^[[:space:]]*$/ { next }
        testfile { test++; next }
        intest {
            test++
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            if (depth <= 0) intest = 0
            next
        }
        pending {
            pending = 0
            if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) {
                # The module and the comments right above it are test lines.
                test += 2 + docs
                prog -= docs
                depth = gsub(/\{/, "{") - gsub(/\}/, "}")
                intest = depth > 0
                next
            }
            prog++
        }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
        { prog++; docs = ($0 ~ /^[[:space:]]*\/\//) ? docs + 1 : 0 }
        END { printf "%d %d\n", prog, test }' |
        awk '{ prog += $1; test += $2 } END { printf "%d %d\n", prog, test }'
}

row() {
    local name="$1"
    shift
    read -r prog test < <(count "$@")
    printf '%-22s %9d %9d\n' "$name" "$prog" "$test"
}

printf '%-22s %9s %9s\n' area program test
for dir in crates/*/; do
    row "${dir%/}" "$dir"
done
row vendor vendor
row "root (src tests)" src tests examples
[[ -d perfbench ]] && row perfbench perfbench
row "crates+vendor total" crates vendor
