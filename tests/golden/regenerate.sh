#!/bin/sh
# Rewrite every golden output in this directory from a build tree:
# tests/golden/NAME.txt is the stdout of bench/NAME, and
# tests/golden/latrsim_check/NAME.txt that of latrsim_check with the
# arguments below (the same as in examples/CMakeLists.txt).
#
#   tests/golden/regenerate.sh [BUILD_DIR]    (default: build)
#
# To pin another bench, create an empty NAME.txt here, rerun CMake
# and run this script. The ctests NAME.MatchesGolden and
# latrsim_check.NAME.MatchesGolden (label "golden") diff a fresh run
# against each file. A change that moves a golden names the file and
# the reason in CHANGES.md.
set -e
here=$(cd "$(dirname "$0")" && pwd)
build=${1:-$here/../../build}
for golden in "$here"/*.txt; do
    bench=$(basename "$golden" .txt)
    "$build/bench/$bench" > "$golden"
done
check=$build/examples/latrsim_check
"$check" --digest=200 > "$here/latrsim_check/digest200.txt"
"$check" --digest=50 --machine=large > "$here/latrsim_check/digest50_large.txt"
