#!/usr/bin/env bash
# Repo gate: lint (when ruff is available; required when $CI is set) +
# the tier-1 test suite.
#
#   scripts/check.sh          # lint + tests
#   scripts/check.sh --fast   # tests only, stop at first failure
#   scripts/check.sh --legs   # the kernel suites three times more (CI's
#                             # steps): on one CPU — the strip team of one —,
#                             # with CC=false, the platform without a
#                             # compiler, whose executor is the NumPy bodies,
#                             # and the nest's suites with the nest built
#                             # under AddressSanitizer + UBSan
#
# Mirrors what reviewers run; keep it green before pushing.  The test
# session fails itself if it leaves a child process (a forked rank) or a
# /dev/shm/repro-* name or a live non-daemon thread behind
# (tests/conftest.py::pytest_sessionfinish).
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[ "${1:-}" = "--fast" ] && fast=1

# NLMASS, NLMNT2 and OUTPUT: bitwise, budgets, the team, the scalar oracle,
# the prepared calls (under CC=false nothing is prepared: every case holds);
# the exchange phases and the health guard's scan on the nest against their
# NumPy bodies.
kernel_suites="tests/test_kernels_bitwise.py tests/test_kernels_flat.py
    tests/test_kernel_passes.py tests/test_strip_team.py
    tests/test_boundary_outputs.py tests/test_loopnest_oracle.py
    tests/test_prepared_calls.py tests/test_exchange_nest.py
    tests/test_health_nest.py"
if [ "${1:-}" = "--legs" ]; then
    echo "== kernel suites as a team of one (taskset -c 0) =="
    PYTHONPATH=src taskset -c 0 python -m pytest -q $kernel_suites
    echo "== kernel and pipeline suites without a compiler (CC=false) =="
    CC=false PYTHONPATH=src python -m pytest -q $kernel_suites \
        tests/test_kernels.py tests/test_step_pipeline.py \
        tests/test_distributed.py tests/test_persist.py \
        tests/test_loopnest_build.py tests/test_nesting_bitwise.py \
        tests/test_exchange_budget.py tests/test_health_bitwise.py \
        tests/test_physics.py
    echo "== the nest's suites, the nest built with ASan + UBSan =="
    # A cache of its own: this object needs libasan preloaded, and must never
    # be what a plain run loads.  The leg refuses to test NumPy in its place.
    asan_cache=$(mktemp -d)
    trap 'rm -rf "$asan_cache"' EXIT
    sanitized=(env XDG_CACHE_HOME="$asan_cache"
        CC="cc -fsanitize=address,undefined"
        LD_PRELOAD="$(cc -print-file-name=libasan.so)"
        ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
        PYTHONPATH=src)
    "${sanitized[@]}" python -c 'from repro.core import loopnest
loopnest.choice()
assert loopnest.provenance()["executor"] == "nest", loopnest.provenance()'
    "${sanitized[@]}" python -m pytest -q tests/test_kernels_bitwise.py \
        tests/test_kernels_flat.py tests/test_loopnest_oracle.py \
        tests/test_exchange_nest.py tests/test_prepared_calls.py \
        tests/test_nesting_bitwise.py tests/test_health_nest.py
    echo "ALL THREE LEGS PASSED"
    exit 0
fi

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

# One performance stack: the retired bench probe and baseline store stay gone.
if git grep -nE 'BaselineStore|compare_docs|run_bench|BENCH_obs|allow-missing' -- \
    src tests benchmarks/conftest.py .github scripts ':!scripts/check.sh'
then echo "== a second performance stack is back (see above) =="; exit 1; fi

# One checkpoint type: ring entries, disk snapshots and buddy replicas are all
# resilience.checkpoint.Checkpoint, with one digest and one verify.
if git grep -nE 'RankSnapshot|restore_snapshot|verify_checkpoint|verify_blocks|checkpoint_checksums|masked_sum' -- \
    src tests
then echo "== a second checkpoint type or verifier is back (see above) =="; exit 1; fi

# One run loop: RTiModel.run is step + monitor; RecoveryEngine is the one loop
# that checkpoints, spills, catches signals and rolls back; survivable runs are
# the one distributed recovery path.
if git grep -nE 'callback_every|run_and_record|resilient_run_distributed|retry_with_backoff|RetryExhaustedError|spill_every|dt_min' -- \
    src tests examples
then echo "== a second run loop or recovery path is back (see above) =="; exit 1; fi

# One home for a multi-rank run: the survivable runtime owns its store,
# journal, signal guard, replicated checkpoints (in CheckpointRing) and
# policy; hedging's and the ring's sizes are constants, not knobs.
if git grep -nE 'NeighborCheckpointStore|store_capacity|hedge_window|hedge_budget|hedge_max_losses|hedge_mad_k|hedge_min_ratio|survivable_complete' -- \
    src tests examples
then echo "== a second home for a multi-rank run is back (see above) =="; exit 1; fi

# One way a request ends: ForecastService settles every ticket through
# _settle; its admission margin, platform and event buffer are constants, not
# knobs, and a circuit breaker's state is read through the breaker.
if git grep -nE '_finish_ok|est_raw_s|retry_failures|event_buffer|flight_events|flight_keep|admission_margin|breaker_cooldown_s' -- \
    src tests examples ||
    git grep -n '_probe_inflight' -- src tests examples ':!src/repro/service/breaker.py'
then echo "== a second way a request ends, or a service knob, is back (see above) =="; exit 1; fi

# One scenario spec, one meaning: repro.persist.scenario is the only code that
# turns a spec into a grid, a step count and a source; the service, the
# observatory and preflight build through it.
if git grep -nE '_source_from_spec|_make_source|_GRID_CELLS' -- \
    src tests examples ||
    git grep -nE 'GaussianSource\(|nankai_like_scenario\(|build_mini_kochi\(|build_kochi_grid\(' -- \
    src/repro/service src/repro/obs src/repro/persist/preflight.py
then echo "== a second scenario decoder is back (see above) =="; exit 1; fi

# One run event: a guarded run's decisions are repro.obs.log.ServiceEvent
# records emitted through RunEvents.emit — journal, log, trace and counter
# once each — and report tallies are counts over the ring.
if git grep -nE 'RecoveryEvent|DegradationEvent|_absorb_stats|_export_metrics|on_event=' -- \
    src tests examples
then echo "== a second run-event record or fan-out is back (see above) =="; exit 1; fi

# One forecast run directory: start_run and resume_run hand every
# single-process run directory to run_resilient_forecast; the journal opens
# with run_start and ends in one complete — no second driver or vocabulary.
if git grep -nwE '_run_to_completion|forecast_start|forecast_complete' -- \
    src tests examples
then echo "== a second run-directory driver or its journal lines are back (see above) =="; exit 1; fi

# One configuration: a guard threshold, cadence or size that no product path
# sets is a module constant, not a parameter (DESIGN.md section 12, "One
# configuration"; tests/test_one_configuration.py lists the rest).
if git grep -nE 'RobustScore|perf_model|physics_every|abort_budget_frac|corrupt_detect_fraction|physics_verdicts=|failure_threshold=|cooldown_s=|max_rollbacks=' -- \
    src tests examples ':!tests/test_one_configuration.py'
then echo "== a parameter no product path sets is back (see above) =="; exit 1; fi

# One numerical guard: the health check and the physics sentinel judge the
# rows of one loopnest.scan per checked step; the sentinel is the sampler's,
# the scan has one NumPy body, and the gauge-anomaly channel stays gone (the
# old physics.json and its test, tests/test_physics_v1.py, keep the two keys;
# tests/test_one_configuration.py names the sentinel's row of gone parameters).
if git grep -nwE 'DivergenceSentinel|_block_maxima|_check_numpy|ANOMALY_LIMIT|gauge_anomaly' -- \
    src tests examples ':!tests/data/physics_v1' ':!tests/test_physics_v1.py' \
    ':!tests/test_one_configuration.py'
then echo "== a second numerical guard or the anomaly channel is back (see above) =="; exit 1; fi

# One run ledger: every journal line of a run but the snapshot pair is a
# record of the run directory's one RunEvents — lifecycle lines are RUN_KINDS
# kinds, not RunStore.record_event calls — and the journal's event names are
# RUN_KINDS', not constants of their own.
if git grep -nwE 'record_event|EVENT_RANK_FAILURE|EVENT_RECOVERY_EPOCH' -- \
    src tests examples
then echo "== a second way into the run journal is back (see above) =="; exit 1; fi

# One simulated-MPI surface: blocking point-to-point and one collective,
# allreduce by messages — no nonblocking requests, no barrier or shared
# reduce buffer.
if git grep -nwE 'isend|irecv|pending_summary|barrier_sync|reduce_buf' -- \
    src tests examples
then echo "== a second simulated-MPI surface is back (see above) =="; exit 1; fi

# One rank world: every multi-rank run forks its ranks, faulted and rank-kill
# runs included — no rank threads, no agreement round (the launcher's failure
# list is the agreed dead set).
if git grep -nwE '_World|_run_rank_threads|_needs_rank_threads|agree_failures|_agree_cv|in_process' -- \
    src tests examples
then echo "== a second rank world or the agreement round is back (see above) =="; exit 1; fi

echo "== pytest (tier 1) =="
if [ "$fast" = 1 ]; then
    PYTHONPATH=src python -m pytest -x -q
else
    PYTHONPATH=src python -m pytest -q
fi

echo "ALL CHECKS PASSED"
