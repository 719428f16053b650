#!/usr/bin/env bash
# Bench smoke: qbench -bench-json times every workload under BuildDD+Mul and
# under local apply, cross-checks the two final states with core.CrossEqual,
# and exits non-zero on any divergence. Figure-output stability is pinned by
# the golden CSVs of internal/bench (TestFigureGolden).
set -euo pipefail
cd "$(dirname "$0")/.."

outroot=$(mktemp -d)
trap 'rm -rf "$outroot"' EXIT

go run ./cmd/qbench -bench-json "$outroot/bench.json"
