#!/usr/bin/env bash
# Builds the end-to-end runner and runs it from the repository root.
#   bash perfbench/run.sh --workload <sweep-paper|serve-grid|serve-novel|all> \
#        --seed N --seconds S --trace 0|1
# Builds go to $CARGO_TARGET_DIR (default: target/ at the root).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path perfbench/benches/e2e/Cargo.toml
exec "$target/release/perfbench-e2e" "$@"
