#!/bin/sh
# Rewrite every golden bench output in this directory from a build
# tree: tests/golden/NAME.txt is the stdout of bench/NAME.
#
#   tests/golden/regenerate.sh [BUILD_DIR]    (default: build)
#
# To pin another bench, create an empty NAME.txt here, rerun CMake
# and run this script. The ctest NAME.MatchesGolden (label "golden")
# diffs a fresh run against each file. A change that moves a golden
# names the file and the reason in CHANGES.md.
set -e
here=$(cd "$(dirname "$0")" && pwd)
build=${1:-$here/../../build}
for golden in "$here"/*.txt; do
    bench=$(basename "$golden" .txt)
    "$build/bench/$bench" > "$golden"
done
