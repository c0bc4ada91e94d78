#!/usr/bin/env bash
# Build the server and the harness, then run the benchmark.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]
#                    [--quick] [--selfcheck]
#
# Without --workload every workload runs. Every metric prints as
# `workload metric value unit`; the last line of stdout is one JSON object,
# also written under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds, so the harness reuses the crates the
# server build compiled. A relative CARGO_TARGET_DIR means relative to where
# the command was started.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cd "$root"
cargo build --quiet --release --offline --manifest-path "$root/Cargo.toml" \
    -p lmerge-sub --bin lmerge-ingest >&2
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/lmerge-benchmark" \
    --sut "$target/release/lmerge-ingest" --out "$here/out" "$@"
