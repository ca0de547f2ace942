#!/usr/bin/env bash
# Rust line counts per workspace crate, test vs non-test — the number
# ROADMAP item 10 ("delete what nothing needs") and the north star's
# "fewest lines" are judged by: a consolidation must make the non-test
# count go *down*, not move lines around.
#
# Usage: scripts/loc.sh                  print this tree's counts as JSON
#        scripts/loc.sh --against <dir>  write results/LOC.json with
#                                        "before" = the checkout at <dir>
#                                        (the parent commit) and "after" =
#                                        this tree
#
# Physical lines of *.rs files, `benchmark/` and build outputs excluded.
# Test lines: everything under a `tests/` or `benches/` directory, files
# named `*_tests.rs` / `proptests.rs`, and inside other files every
# column-0 `#[cfg(test)]` / `#[cfg(all(test, ..))]` `mod .. { .. }` block.
set -euo pipefail

count_tree() {
    local root=$1
    (
        cd "$root"
        echo "{"
        echo "  \"commit\": \"$(git rev-parse --short HEAD 2>/dev/null || echo unknown)$(git diff --quiet HEAD 2>/dev/null || echo +dirty)\","
        echo "  \"crates\": {"
        local first=1 total_test=0 total_code=0
        for dir in crates/* compat/* .; do
            [ -d "$dir" ] || continue
            local name files
            if [ "$dir" = . ]; then
                name=si-rep
                files=$(find src tests examples -name '*.rs' 2>/dev/null | sort)
            else
                name=$(basename "$dir")
                [ "${dir%%/*}" = compat ] && name="compat-$name"
                files=$(find "$dir" -name '*.rs' -not -path '*/target/*' | sort)
            fi
            [ -n "$files" ] || continue
            # shellcheck disable=SC2086
            read -r test code < <(awk '
                FNR == 1 {
                    whole = (FILENAME ~ /(^|\/)(tests|benches)\// || FILENAME ~ /(_tests|proptests)\.rs$/)
                    in_mod = 0; armed = 0
                }
                whole { test++; next }
                in_mod { test++; if ($0 ~ /^}/) in_mod = 0; next }
                /^#\[cfg\((all\()?test/ { armed = 1; held = 1; next }
                armed && /^mod [a-z_]+ \{/ { test += held + 1; in_mod = 1; armed = 0; next }
                armed { code += held; armed = 0 }
                { code++ }
                END { print test + 0, code + 0 }
            ' $files)
            [ $first = 1 ] || echo ","
            first=0
            printf '    "%s": {"non_test": %d, "test": %d}' "$name" "$code" "$test"
            total_test=$((total_test + test))
            total_code=$((total_code + code))
        done
        echo
        echo "  },"
        echo "  \"workspace\": {\"non_test\": $total_code, \"test\": $total_test}"
        echo -n "}"
    )
}

if [ "${1:-}" = --against ]; then
    before=${2:?usage: scripts/loc.sh --against <parent checkout>}
    cd "$(dirname "$0")/.."
    {
        echo "{"
        echo "\"generated_by\": \"scripts/loc.sh --against <parent checkout>\","
        echo "\"before\": $(count_tree "$before"),"
        echo "\"after\": $(count_tree .)"
        echo "}"
    } > results/LOC.json
    echo "wrote results/LOC.json"
else
    cd "$(dirname "$0")/.."
    count_tree .
    echo
fi
