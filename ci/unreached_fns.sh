#!/usr/bin/env bash
# Unreached-function probe.
#
# Lists every `pub fn` / `pub const fn` of the 14 library crates that no
# shipped surface reaches, and fails unless that list equals the kept
# items in ci/unreached_allowlist.txt. The shipped surfaces are the
# facade library (src/lib.rs) and the `hpcarbon` binary.
#
# The probe works on a throwaway copy of the tree (mktemp -d, with its
# own CARGO_TARGET_DIR) and never edits the working tree:
#   1. every `pub fn` and `pub const fn` under crates/<lib>/src becomes
#      `pub(crate)`, with a marker comment;
#   2. `cargo check -p sustainable-hpc --lib --bins` runs, and each
#      definition that a privacy error names gets its `pub` back. E0603
#      and E0624 carry the definition's span. E0364 (a `pub use` of a
#      demoted free function) names only the item, so its marked
#      `pub(crate) fn NAME` is looked up in the re-exporting crate;
#   3. step 2 repeats until the build is clean;
#   4. rustc's dead_code lint then names each marked function that
#      neither surface reaches. Each is printed as one `path item` line,
#      `item` being `Type::name` for a method and `name` otherwise.
#
# The allowlist names each item a listed kind keeps on purpose. The
# probe fails on an unreached item the allowlist does not name, and on
# an allowlist entry the probe no longer reports, so the list stays
# exact.
#
# Usage: ci/unreached_fns.sh   (from anywhere; needs bash, cargo, jq)
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
ALLOWLIST="$ROOT/ci/unreached_allowlist.txt"
CRATES="units simcore timeseries core grid power workloads upgrade sched report api catalog server sweep"
MARK='/*unreached-probe*/'
MAX_PASSES=60

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
TREE="$WORK/tree"
mkdir -p "$TREE"
tar -C "$ROOT" \
    --exclude=./.git --exclude=./target --exclude=./ci/out \
    --exclude='./perfbench/benches/*/target' -cf - . | tar -C "$TREE" -xf -
export CARGO_TARGET_DIR="$WORK/target"

cd "$TREE"
for crate in $CRATES; do
    find "crates/$crate/src" -name '*.rs' -exec sed -i -E \
        "s#^([[:space:]]*)pub (const )?fn #\\1pub(crate) $MARK \\2fn #" {} +
done

# Gives `pub` back to the marked definition on line $2 of file $1.
restore_line() {
    sed -i -E "${2}s#pub\\(crate\\) /\\*unreached-probe\\*/ #pub #" "$1"
}

# A checksum of the library sources, to tell whether a pass undid anything.
tree_sum() {
    find crates -path '*/src/*' -name '*.rs' -print0 | sort -z | xargs -0 cat | cksum
}

pass=0
while :; do
    pass=$((pass + 1))
    if [ "$pass" -gt "$MAX_PASSES" ]; then
        echo "unreached_fns: no clean build after $MAX_PASSES passes" >&2
        exit 2
    fi
    cargo check -q -p sustainable-hpc --lib --bins --message-format=json \
        >"$WORK/check.json" 2>"$WORK/check.err" || true
    if jq -e 'select(.reason == "build-finished") | .success' \
        "$WORK/check.json" >/dev/null; then
        break
    fi
    before=$(tree_sum)
    # E0603 / E0624: the definition's span is in a child note or a label.
    jq -r 'select(.reason == "compiler-message") | .message
        | select(.code.code == "E0603" or .code.code == "E0624")
        | ([.spans[] | select(.label // "" | test("defined here"))]
           + [.children[] | select(.message | test("defined here")) | .spans[]])
        | .[] | "\(.file_name) \(.line_start)"' "$WORK/check.json" |
        sort -u | while read -r file line; do
            restore_line "$file" "$line"
        done
    # E0364: only the item's name and the re-exporting crate are given.
    jq -r 'select(.reason == "compiler-message") | .message
        | select(.code.code == "E0364")
        | (.message | capture("`(?<name>[A-Za-z0-9_]+)`").name) as $name
        | "\(.spans[0].file_name | split("/")[0:2] | join("/")) \($name)"' \
        "$WORK/check.json" | sort -u | while read -r dir name; do
            grep -rnE "pub\\(crate\\) /\\*unreached-probe\\*/ (const )?fn $name\\b" "$dir/src" |
                while IFS=: read -r file line _; do
                    restore_line "$file" "$line"
                done
        done
    after=$(tree_sum)
    if [ "$before" = "$after" ]; then
        echo "unreached_fns: pass $pass failed with no privacy error to undo:" >&2
        jq -r 'select(.reason == "compiler-message") | .message
            | select(.level == "error") | .rendered' "$WORK/check.json" >&2
        cat "$WORK/check.err" >&2
        exit 2
    fi
done
echo "unreached_fns: clean after $pass passes" >&2

# Every marked function a dead_code warning names, as `path item`. A
# method is qualified by the type of its impl block (the lint's
# "... in this implementation" label).
jq -r --arg mark "$MARK" 'select(.reason == "compiler-message") | .message
    | select(.code.code == "dead_code")
    | ([.spans[] | select(.is_primary | not)
        | select(.label // "" | test("in this implementation"))
        | .text[0].text
        | capture("impl(<[^>]*>)?\\s+(?<ty>[A-Za-z0-9_$]+)").ty] | first) as $ty
    | .spans[] | select(.is_primary)
    | select(.text[0].text | contains($mark))
    | (.text[0].text | capture("fn (?<name>[A-Za-z0-9_]+)").name) as $name
    | "\(.file_name) \(if $ty then "\($ty)::" else "" end)\($name)"' \
    "$WORK/check.json" | sort -u >"$WORK/unreached.txt"
cat "$WORK/unreached.txt"

{ grep -vE '^[[:space:]]*(#|$)' "$ALLOWLIST" || true; } | sort -u >"$WORK/allowed.txt"
fail=0
if comm -23 "$WORK/unreached.txt" "$WORK/allowed.txt" | grep .; then
    echo "unreached_fns: the lines above are unreached and not on $ALLOWLIST;" \
        "delete them, or add them under the kind that keeps them" >&2
    fail=1
fi >&2
if comm -13 "$WORK/unreached.txt" "$WORK/allowed.txt" | grep .; then
    echo "unreached_fns: the allowlist lines above are no longer unreached;" \
        "remove them from $ALLOWLIST" >&2
    fail=1
fi >&2
n=$(wc -l <"$WORK/unreached.txt")
if [ "$fail" -eq 0 ]; then
    echo "unreached_fns: $n unreached functions, all on the allowlist" >&2
fi
exit "$fail"
