#!/usr/bin/env bash
# Repo gate: lint (when ruff is available; required when $CI is set) +
# the tier-1 test suite.
#
#   scripts/check.sh          # lint + tests
#   scripts/check.sh --fast   # tests only, stop at first failure
#
# Mirrors what reviewers run; keep it green before pushing.  The test
# session fails itself if it leaves a child process (a forked rank) or a
# /dev/shm/repro-* name or a live non-daemon thread behind
# (tests/conftest.py::pytest_sessionfinish).
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[ "${1:-}" = "--fast" ] && fast=1

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks
elif [ -n "${CI:-}" ]; then
    # CI must lint: a silent skip there is how unused imports piled up.
    echo "== ruff not installed but \$CI is set; refusing to skip lint =="
    exit 1
else
    echo "== ruff not installed; skipping lint (pip install ruff) =="
fi

echo "== pytest (tier 1) =="
if [ "$fast" = 1 ]; then
    PYTHONPATH=src python -m pytest -x -q
else
    PYTHONPATH=src python -m pytest -q
fi

echo "ALL CHECKS PASSED"
