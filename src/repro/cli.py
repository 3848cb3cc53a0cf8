"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``forecast``
    Run a mini-Kochi inundation forecast with a Gaussian or Nankai-like
    source and print the operational products (max levels, inundation,
    arrival times, expected building damage).
``sweep``
    The Fig.-15 experiment: simulated six-hour Kochi runtime across the
    Table-II systems and a list of socket counts.
``grid``
    Print the Table-I Kochi grid organization.
``balance``
    Run the Fig.-5 microbenchmark + Algorithm-1 separator optimization
    for a platform and report the improvement.
``validate``
    Preflight a scenario JSON (or a run directory) and print every
    problem as an actionable finding — nothing is stepped.
``resume``
    Continue an interrupted ``forecast --rundir`` run from its newest
    valid on-disk snapshot to a bitwise-identical final state.
``inspect``
    Summarize a run directory from its telemetry (journal + trace +
    metrics): phase breakdown, critical path, slowest spans, rank
    imbalance, ETA accuracy.  Exits 3 when the run directory is
    missing or holds a damaged artifact and 4 when it holds no recorded
    spans (structured JSON error, no traceback) so scripts can tell the
    cases apart.  With ``--request ID`` it instead renders that
    request's flight-recorder timeline (dumped by the service on
    shed/failure/deadline breach); exits 5 when no recording exists for
    the id.  One ``--<guard>`` flag per registered guard verdict
    (:mod:`repro.guards`: ``--physics``, ``--integrity``) renders that
    guard's artifact and exits with the guard's own codes.
``slo``
    Evaluate the service-level objectives of a run: reads ``slo.json``
    (or a run directory holding one), prints attainment, error-budget
    remaining, and burn rates per objective, and exits 1 when any
    error budget is exhausted — the CI gate for the nightly soak.
``retune``
    Online calibration: fit the linear kernel-cost model from a traced
    run's per-block kernel spans, report drift against the platform's
    stored reference model, and re-run the Algorithm-1 separator
    optimization under the recalibrated model.
``serve``
    Run the overload-safe forecast service (``repro.service``): either
    the deterministic 3x-capacity soak harness (``--soak``) or a spool
    of submitted requests (``--requests FILE``), reporting every
    admission, shed, and completion decision.  Exits non-zero when an
    overload invariant is violated (a silent deadline miss).
``submit``
    Build one forecast request (scenario + deadline + tenant + class)
    and append it to a spool file for ``serve --requests``, print it,
    or run it immediately (``--run``).

Global flags: ``--log-level`` / ``--log-json`` configure the structured
logger; ``forecast --export-trace`` / ``--export-metrics`` arm the
telemetry layer and drop Chrome-trace / metrics snapshots.
"""

from __future__ import annotations

import argparse
import sys

from repro import guards


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive float, rejected at parse time."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer, rejected at parse time."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _cmd_grid(_args) -> int:
    from repro.topo import build_kochi_grid

    print(build_kochi_grid().summary())
    return 0


def _print_products(model, grid) -> None:
    from repro.damage import assess_damage

    print(f"max water level : {model.max_eta():.2f} m")
    print(f"max flow speed  : {model.max_speed():.2f} m/s")
    finest = model.grid.levels[-1]
    if finest.index == grid.levels[-1].index:
        area = sum(
            model.outputs[b.block_id].inundated_area(finest.dx)
            for b in finest.blocks
        )
        print(f"inundated area  : {area:.0f} m^2 ({finest.dx:g} m grid)")
    else:
        print("inundated area  : n/a (finest level dropped to meet deadline)")
    report = assess_damage(model)
    print(f"buildings exposed/damaged: {report.buildings_exposed:.0f} / "
          f"{report.buildings_damaged:.1f} "
          f"(ratio {report.damage_ratio:.3f})")
    print(f"population exposed       : {report.population_exposed:.0f}")


def _cli_spec(args) -> dict:
    """The scenario spec that ``forecast``'s and ``submit``'s flags describe.

    It spells out the grid, the step and the source so that the spec
    journaled by ``forecast --rundir`` stands on its own.
    """
    from repro.persist.scenario import GAUSSIAN_DEFAULTS, build_config

    if args.source == "gaussian":
        source = {"type": "gaussian", **GAUSSIAN_DEFAULTS,
                  "amplitude": args.amplitude}
    else:
        source = {"type": "nankai", "magnitude_scale": args.amplitude / 2.0}
    config = build_config({"grid": "mini-kochi", "minutes": args.minutes})
    return {
        "grid": "mini-kochi",
        "dt": config.dt,
        "n_steps": config.n_steps,
        "source": source,
    }


def _obs_setup(args) -> bool:
    """Arm the telemetry layer when an ``--export-*`` flag was given."""
    if args.export_trace is None and args.export_metrics is None:
        return False
    import repro.obs as obs

    obs.reset()
    obs.enable()
    return True


def _obs_export(args, physics_samples=None) -> None:
    """Write the requested trace/metrics artifacts after a traced run.

    *physics_samples* (sample dicts from a physics-instrumented run)
    become ``"ph": "C"`` counter tracks merged into the Chrome trace.
    """
    from pathlib import Path

    import repro.obs as obs

    base = Path(args.rundir or ".")
    artifacts = (
        ("trace.json", args.export_trace,
         "wrote Chrome trace: {} (load in ui.perfetto.dev)",
         lambda path: obs.write_chrome_trace(
             path, physics_samples=physics_samples)),
        ("metrics.json", args.export_metrics, "wrote metrics snapshot: {}",
         obs.get_registry().write_json),
    )
    written = set()
    for name, flag, said, write in artifacts:
        if flag is not None:
            path = Path(flag) if flag else base / name
            write(path)
            print(said.format(path))
            written.add(path)
    if args.rundir is not None:
        # A traced run directory always holds both, for `repro inspect`.
        for name, _flag, _said, write in artifacts:
            if base / name not in written:
                write(base / name)


#: ``forecast`` flags only a distributed run reads, by destination: the
#: :class:`~repro.resilience.SurvivalConfig` field each one sets.
_RANK_FLAGS = {"spare_ranks": "--spare-ranks", "policy": "--recovery-policy",
               "max_rank_failures": "--max-rank-failures",
               "hedge_stragglers": "--hedge-stragglers"}
#: ``forecast`` flags only a single-process run reads, by destination.
_SINGLE_FLAGS = {"integrity_every": "--integrity-every",
                 "scrub_every": "--scrub-every", "resume": "--resume"}


def _ignored_flag(args) -> str | None:
    """Why the path ``forecast``'s flags pick would ignore one of them."""
    ranked = args.ranks > 1
    for dest, flag in (_SINGLE_FLAGS if ranked else _RANK_FLAGS).items():
        if getattr(args, dest) not in (None, False):
            return f"{flag} needs --ranks {'1' if ranked else '> 1'}"
    if args.scrub_every is not None and args.integrity_every is None:
        return "--scrub-every needs --integrity-every"
    if args.resume and args.rundir is None:
        return "--resume needs --rundir"
    return None


def _fault_plan(args, built):
    """The fault plan ``--faults``/``--fault-seed`` name, or None."""
    from repro.resilience import FaultPlan

    if args.faults is not None:
        return FaultPlan.from_file(args.faults)
    if args.fault_seed is None:
        return None
    if args.ranks > 1:
        kinds = ("rank_crash", "msg_drop", "msg_delay")
    else:
        # With the integrity layer armed, seeded plans may also flip
        # bits — the layer exists to catch exactly those.
        kinds = ("nan", "straggler")
        if args.integrity_every is not None:
            kinds = kinds + ("bitflip",)
    return FaultPlan.random(
        args.fault_seed, kinds=kinds,
        n_faults=args.fault_count, n_ranks=args.ranks,
        n_steps=max(built.n_steps, 1), n_blocks=built.grid.n_blocks,
    )


def _cmd_forecast(args) -> int:
    from repro.core import RTiModel
    from repro.persist.scenario import build_scenario

    ignored = _ignored_flag(args)
    if ignored is not None:
        print(f"error: {ignored}")
        return 2
    traced = _obs_setup(args)
    if args.resume:
        from repro.persist import resume_run

        return _run_in_rundir(
            args, traced, lambda: resume_run(args.rundir, echo=print)
        )
    spec = _cli_spec(args)
    built = build_scenario(spec)
    steps = built.n_steps
    if args.ranks > 1:
        return _forecast_distributed(args, built, traced)

    plan = _fault_plan(args, built)
    integrity_every = args.integrity_every or 0
    if (args.rundir is None and args.deadline is None and plan is None
            and not integrity_every):
        model = RTiModel(built.grid, built.bathymetry, built.config)
        model.set_initial_condition(built.source)
        print(f"Integrating {steps} steps ({args.minutes} simulated "
              f"minutes)...")
        model.run(steps)
        _print_products(model, built.grid)
        if traced:
            _obs_export(args)
        return 0

    settings = dict(
        deadline_s=args.deadline,
        fault_plan=plan,
        checkpoint_every=args.checkpoint_every,
        integrity_every=integrity_every,
        scrub_every=args.scrub_every or integrity_every * 4,
    )
    print(f"Integrating {steps} steps ({args.minutes} simulated "
          f"minutes) with resilience enabled...")
    if args.rundir is not None:
        from repro.persist import start_run

        return _run_in_rundir(
            args, traced,
            lambda: start_run(args.rundir, spec, echo=print, **settings),
            grid=built.grid,
        )
    from repro.resilience import run_resilient_forecast

    try:
        report = run_resilient_forecast(
            built.grid, built.bathymetry,
            config=built.config, source=built.source,
            horizon_s=steps * built.config.dt, **settings,
        )
    except KeyboardInterrupt:
        print("interrupted")
        return 130
    print(report.summary())
    _print_products(report.model, built.grid)
    if traced:
        _obs_export(
            args, physics_samples=(report.physics or {}).get("samples")
        )
    return 0


def _run_in_rundir(args, traced, run, grid=None) -> int:
    """Drive ``args.rundir``'s run (:func:`repro.persist.start_run` or
    :func:`~repro.persist.resume_run`) and report how it ended."""
    from pathlib import Path

    from repro.errors import NumericalError, PersistError, ValidationError
    from repro.persist import RunStore, run_status

    try:
        model = run()
    except KeyboardInterrupt:
        _status, refusal = run_status(RunStore(args.rundir).events())
        print("interrupted" if refusal else
              f"interrupted — continue later with: repro resume {args.rundir}")
        return 130
    except ValidationError as exc:
        print(exc)
        return 1
    except (PersistError, NumericalError) as exc:
        print(f"error: {exc}")
        return 1
    _print_products(model, grid or model.grid)
    if traced:
        physics = Path(args.rundir) / guards.PHYSICS.artifact
        _obs_export(args, physics_samples=(
            guards.PHYSICS.load(physics).get("samples")
            if physics.exists() else None
        ))
    return 0


def _forecast_distributed(args, built, traced) -> int:
    """``forecast --ranks N``: the survivable distributed runtime."""
    from repro.core.pipeline import make_block_state
    from repro.core.state import max_wet_eta
    from repro.par.decomposition import equal_cell_assignment
    from repro.resilience import SurvivalConfig
    from repro.resilience.survive import survivable_run_distributed

    grid, config, steps = built.grid, built.config, built.n_steps
    plan = _fault_plan(args, built)
    from repro.persist import RunStore

    store = RunStore(args.rundir) if args.rundir is not None else None
    decomp = equal_cell_assignment(grid, args.ranks, split_blocks=False)
    survival = SurvivalConfig(
        checkpoint_every=args.checkpoint_every,
        deadline_s=args.deadline,
        # An unset flag keeps SurvivalConfig's default.
        **{dest: getattr(args, dest) for dest in _RANK_FLAGS
           if getattr(args, dest) is not None},
    )
    print(f"Integrating {steps} steps ({args.minutes} simulated minutes) "
          f"on {args.ranks} ranks with failure survival...")
    try:
        eta, report = survivable_run_distributed(
            grid, built.bathymetry, config, decomp, built.source, steps,
            survival=survival, fault_plan=plan, store=store,
        )
    except KeyboardInterrupt:
        print("interrupted")
        return 130
    if plan is not None and plan.triggered_labels():
        print("faults fired    : " + "; ".join(plan.triggered_labels()))
    print("recovery        : " + report.summary())
    eta_max = max(
        max_wet_eta(a, make_block_state(
            grid, built.bathymetry, config, grid.block(bid)
        ).depth_interior(), config.dry_threshold)
        for bid, a in eta.items()
    )
    print(f"max water level : {eta_max:.2f} m")
    if traced:
        from repro.obs import get_registry

        recovery = get_registry().sample("repro_recovery_")
        recovery.update(get_registry().sample("repro_hedge_"))
        for name, value in sorted(recovery.items()):
            print(f"  {name} = {value:g}")
        _obs_export(args)
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis import format_series
    from repro.hw import SYSTEMS, get_system
    from repro.par.decomposition import build_decomposition
    from repro.runtime import ExecutionConfig, simulate_run_seconds
    from repro.topo import build_kochi_grid

    grid = build_kochi_grid()
    names = args.systems or list(SYSTEMS)
    table: dict[str, list[str]] = {}
    for name in names:
        system = get_system(name)
        row = []
        for sockets in args.sockets:
            if system.platform.kind == "gpu" and sockets < 8:
                row.append("n/a")
                continue
            n_ranks = (
                sockets if system.platform.kind == "gpu" else max(sockets, 16)
            )
            d = build_decomposition(grid, n_ranks)
            s = simulate_run_seconds(
                grid, d, system, ExecutionConfig(comm=args.comm),
                n_devices=sockets,
            )
            row.append(f"{s:.0f}s")
        table[name] = row
    print(format_series("sockets", table, args.sockets,
                        title="Six-hour Kochi forecast (simulated)"))
    return 0


def _cmd_balance(args) -> int:
    from repro.balance.apply import fit_platform_model, optimized_decomposition
    from repro.hw import get_system
    from repro.par.decomposition import equal_cell_assignment
    from repro.topo import build_kochi_grid

    system = get_system(args.system)
    grid = build_kochi_grid()
    model = fit_platform_model(system.platform)
    print(f"perf model: t = {model.slope_us_per_cell:.3e}*cells "
          f"+ {model.intercept_us:.1f} us (R^2={model.r2:.3f})")
    base = equal_cell_assignment(grid, args.ranks, split_blocks=False)
    opt = optimized_decomposition(grid, args.ranks, system.platform,
                                  model=model)

    def makespan(d):
        return max(
            model.rank_time_us([it.n_cells for it in rw.items])
            for rw in d.ranks
        )

    mb, mo = makespan(base), makespan(opt)
    print(f"model makespan: baseline {mb:.0f} us -> optimized {mo:.0f} us "
          f"({mb / mo:.2f}x)")
    print(f"blocks/rank baseline : {base.blocks_per_rank()}")
    print(f"blocks/rank optimized: {opt.blocks_per_rank()}")
    return 0


def _cmd_validate(args) -> int:
    import os

    from repro.errors import PersistError
    from repro.persist import load_scenario, validate_rundir, validate_scenario
    from repro.persist.store import RunStore

    target = args.target
    if os.path.isdir(target):
        looks_like_rundir = os.path.exists(
            os.path.join(target, RunStore.JOURNAL_NAME)
        ) or os.path.isdir(os.path.join(target, RunStore.SNAPSHOT_DIR))
        if not looks_like_rundir:
            print(f"error: {target} is a directory but not a run directory")
            return 2
        report = validate_rundir(target)
    else:
        try:
            spec = load_scenario(target)
        except PersistError as exc:
            print(f"error: {exc}")
            return 2
        report = validate_scenario(spec, rundir=args.rundir)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_resume(args) -> int:
    from repro.persist import resume_run

    return _run_in_rundir(
        args, False, lambda: resume_run(args.rundir, echo=print)
    )


#: ``repro inspect`` exit codes (distinct so wrappers can branch).
EXIT_NO_RUNDIR = 3
EXIT_NO_SPANS = 4
EXIT_NO_FLIGHT = 5

#: The table `repro inspect --help` and the README publish; the guard
#: rows come from the registry (:mod:`repro.guards`).
INSPECT_EXIT_CODES = """\
exit codes:
  0  report rendered (and any gated verdict is acceptable)
  3  run directory missing or unreadable
  4  no spans recorded (re-run with --export-trace)
  5  no flight recording for --request ID
""" + "".join(
    f"  {k.exit_absent}  {k.artifact} absent ({k.title} off for the run)\n"
    f"  {k.exit_worst}  {k.name} verdict is {k.worst} (--{k.name} gate)\n"
    for k in guards.KINDS
)


def _structured_error(code: str, exit_code: int, detail: str,
                      hint: str | None = None) -> int:
    """Print a machine-readable one-line JSON error; returns *exit_code*."""
    import json

    err: dict = {"code": code, "exit_code": exit_code, "detail": detail}
    if hint:
        err["hint"] = hint
    print(json.dumps({"error": err}))
    return exit_code


def _cmd_inspect(args) -> int:
    from repro.artifacts import rejecting_malformed
    from repro.errors import PersistError
    from repro.obs.inspect import inspect_guard, load_rundir, render_report

    if args.request:
        from repro.obs import inspect_request

        try:
            print(inspect_request(args.rundir, args.request))
        except PersistError as exc:
            return _structured_error(
                "no-flight", EXIT_NO_FLIGHT, str(exc),
                hint="flight recordings are dumped for shed, failed, "
                     "rejected, and deadline-missed requests only",
            )
        return 0
    for kind in guards.KINDS:
        if not getattr(args, kind.name):
            continue
        try:
            text, ok = inspect_guard(args.rundir, kind)
        except PersistError as exc:
            return _structured_error(
                f"no-{kind.name}", kind.exit_absent, str(exc),
                hint=kind.absent_hint,
            )
        print(text)
        return 0 if ok else kind.exit_worst
    try:
        art = load_rundir(args.rundir)
        with rejecting_malformed(args.rundir):
            text = render_report(art, top_n=args.top) if art.spans else None
    except PersistError as exc:
        return _structured_error("rundir-missing", EXIT_NO_RUNDIR, str(exc))
    if text is None:
        return _structured_error(
            "no-spans", EXIT_NO_SPANS,
            f"{args.rundir} has no recorded spans",
            hint="re-run with `repro forecast --export-trace` to record "
                 "spans",
        )
    print(text)
    return 0


def _cmd_retune(args) -> int:
    from repro.errors import ReproError
    from repro.obs.observatory import retune_from_rundir

    try:
        report = retune_from_rundir(
            args.from_rundir,
            system=args.system,
            ranks=args.ranks,
            grid=args.grid,
            iterations=args.iterations,
            seed=args.seed,
        )
    except ReproError as exc:
        print(f"error: {exc}")
        return 1
    print(report.summary())
    return 0


def _serve_outcome_line(ticket) -> str:
    req = ticket.request
    base = f"{req.request_id:<12} {req.klass:<8} {ticket.status:<8}"
    if ticket.status in ("done", "cached"):
        fidelity = ticket.result.fidelity.tag if ticket.result else "?"
        met = "met" if ticket.deadline_met else "MISSED"
        return (f"{base} fidelity={fidelity} "
                f"latency={ticket.latency_s:.1f}s deadline {met}")
    return f"{base} {ticket.outcome_detail or ticket.error or ''}"


def _cmd_serve(args) -> int:
    import json

    from repro.obs import get_registry

    if args.soak:
        from repro.service import SoakConfig, run_soak

        if args.rundir:
            # Arm the tracer so the exported Chrome trace carries one
            # span tree per request (request -> backend.run -> ranks).
            import repro.obs as obs

            obs.reset()
            obs.enable()
        report = run_soak(SoakConfig(
            duration_s=args.duration,
            rate_multiplier=args.rate,
            seed=args.seed,
            workers=args.workers,
            queue_capacity=args.queue_capacity,
            diverge_fraction=args.diverge_fraction,
            corrupt_fraction=args.corrupt_fraction,
        ), rundir=args.rundir)
        print(report.summary())
        if args.rundir:
            print(f"wrote soak artifacts (slo.json, trace.json, "
                  f"metrics.json, guard verdict documents, flight/) "
                  f"under {args.rundir}")
        if args.export_metrics:
            get_registry().write_json(args.export_metrics)
            print(f"wrote metrics snapshot: {args.export_metrics}")
        return 0 if report.ok else 1

    if args.requests is None:
        print("error: serve needs --soak or --requests FILE")
        return 2

    import math

    from repro.errors import ServiceError, ServiceOverloadError
    from repro.service import (
        ForecastRequest,
        ForecastService,
        LocalBackend,
        ServiceConfig,
        SimulatedBackend,
    )

    backend = (
        LocalBackend() if args.backend == "local" else SimulatedBackend()
    )
    service = ForecastService(
        backend,
        ServiceConfig(
            workers=args.workers, queue_capacity=args.queue_capacity
        ),
        estimator=getattr(backend, "estimator", None),
    )
    try:
        with open(args.requests, encoding="utf-8") as fh:
            lines = [
                (n, json.loads(line))
                for n, line in enumerate(fh, 1) if line.strip()
            ]
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.requests}: {exc}")
        return 2
    # Every line is checked before the first submission.  Requests are
    # built in arrival order: the order their ids count in.
    timed = []
    for n, spec in lines:
        raw = spec.pop("at", 0.0) if isinstance(spec, dict) else 0.0
        try:
            at = float(raw)
        except (TypeError, ValueError, OverflowError):
            at = math.nan
        if not math.isfinite(at):
            print(f"error: {args.requests}:{n}: 'at' must be a finite "
                  f"number of seconds, got {raw!r}")
            return 2
        timed.append((at, n, spec))
    requests = []
    for at, n, spec in sorted(timed, key=lambda item: item[0]):
        try:
            requests.append((at, n, ForecastRequest.from_dict(spec)))
        except ServiceError as exc:
            print(f"error: {args.requests}:{n}: {exc}")
            return 2
    for at, n, request in requests:
        service.advance_to(max(at, service.clock.now()))
        try:
            service.submit(request)
        except ServiceOverloadError as exc:
            print(f"{request.request_id:<12} {request.klass:<8} rejected "
                  f"{type(exc).__name__}: {exc}")
        except ServiceError as exc:  # a scenario the service cannot price
            print(f"error: {args.requests}:{n}: {exc}")
            return 2
    service.run_until_idle()
    bad = 0
    for ticket in service.tickets:
        print(_serve_outcome_line(ticket))
        if ticket.status == "failed" or ticket.deadline_met is False:
            bad += 1
    stats = service.stats()
    print(f"served {stats['tickets']} requests; by status: "
          + ", ".join(f"{k}={v}"
                      for k, v in sorted(stats["by_status"].items())))
    if args.export_metrics:
        get_registry().write_json(args.export_metrics)
        print(f"wrote metrics snapshot: {args.export_metrics}")
    return 0 if bad == 0 else 1


def _cmd_slo(args) -> int:
    from pathlib import Path

    from repro.artifacts import rejecting_malformed
    from repro.errors import PersistError
    from repro.obs import load_slo_report, render_slo_doc

    target = Path(args.target)
    path = target / "slo.json" if target.is_dir() else target
    try:
        with rejecting_malformed(path):
            lines, ok = render_slo_doc(load_slo_report(path))
    except PersistError as exc:
        return _structured_error(
            "no-slo", EXIT_NO_RUNDIR, str(exc),
            hint="produce one with `repro serve --soak --rundir DIR`",
        )
    print("\n".join(lines))
    return 0 if ok else 1


def _cmd_submit(args) -> int:
    import json

    from repro.errors import ServiceError
    from repro.service import ForecastRequest

    where = args.scenario or "the built-in scenario"
    if args.scenario is not None:
        try:
            with open(args.scenario, encoding="utf-8") as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {args.scenario}: {exc}")
            return 2
    else:
        spec = _cli_spec(args)
    try:
        request = ForecastRequest(
            scenario=spec,
            deadline_s=args.deadline,
            tenant=args.tenant,
            klass=args.klass,
        )
    except ServiceError as exc:
        print(f"error: {where}: {exc}")
        return 2
    doc = request.to_dict()
    if args.at is not None:
        doc["at"] = args.at

    if args.run:
        from repro.errors import ServiceOverloadError
        from repro.service import ForecastService, LocalBackend

        service = ForecastService(LocalBackend())
        try:
            ticket = service.submit(request)
        except ServiceOverloadError as exc:
            print(f"rejected: {type(exc).__name__}: {exc}")
            return 1
        except ServiceError as exc:  # a scenario the builder refuses
            print(f"error: {where}: {exc}")
            return 2
        service.run_until_idle()
        print(_serve_outcome_line(ticket))
        if ticket.result is not None:
            payload = ticket.result.payload
            if "max_eta" in payload:
                print(f"max water level : {payload['max_eta']:.2f} m")
        return 0 if ticket.status in ("done", "cached") else 1

    if args.spool is not None:
        with open(args.spool, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
        print(f"spooled {request.request_id} ({request.klass}, "
              f"deadline {request.deadline_s:g}s) -> {args.spool}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RTi-py: real-time tsunami simulator reproduction",
    )
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"],
                        help="structured-log threshold (default: warning)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit structured logs as JSONL on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("grid", help="print the Table-I Kochi grid")

    p_fc = sub.add_parser("forecast", help="run a mini-Kochi forecast")
    p_fc.add_argument("--source", choices=["gaussian", "nankai"],
                      default="gaussian")
    p_fc.add_argument("--amplitude", type=float, default=2.0,
                      help="source amplitude [m] / slip scale")
    p_fc.add_argument("--minutes", type=_positive_float, default=2.0,
                      help="simulated minutes to integrate")
    p_fc.add_argument("--deadline", type=_positive_float, default=None,
                      help="wall-clock budget [s] (simulated on the hw "
                           "model); enables graceful degradation")
    p_fc.add_argument("--faults", default=None, metavar="PLAN.json",
                      help="fault-plan file to inject (see "
                           "repro.resilience.faultplan)")
    p_fc.add_argument("--fault-seed", type=int, default=None,
                      help="generate a random seeded fault plan instead "
                           "of reading one from --faults")
    p_fc.add_argument("--fault-count", type=int, default=3,
                      help="number of faults for --fault-seed plans")
    p_fc.add_argument("--integrity-every", type=_positive_int, default=None,
                      metavar="STEPS",
                      help="arm the ABFT integrity layer (state checksums, "
                           "checkpoint digests, quarantine rollback) on "
                           "this step cadence; writes integrity.json with "
                           "--rundir")
    p_fc.add_argument("--scrub-every", type=_positive_int, default=None,
                      metavar="STEPS",
                      help="checkpoint-ring scrub cadence (default: the "
                           "integrity cadence x 4; needs --integrity-every)")
    p_fc.add_argument("--rundir", default=None, metavar="DIR",
                      help="persist the run into DIR: journal, "
                           "checkpoints, streamed gauge products and guard "
                           "verdicts; an interrupted run without --deadline "
                           "restarts via 'repro resume DIR'")
    p_fc.add_argument("--checkpoint-every", type=_positive_int, default=25,
                      metavar="STEPS",
                      help="checkpoint cadence of a guarded or --rundir "
                           "run: its rollback targets, spilled to DIR "
                           "(default: 25 steps)")
    p_fc.add_argument("--resume", action="store_true",
                      help="continue the interrupted run in --rundir "
                           "(as 'repro resume DIR': the scenario and the "
                           "guards come from its journal)")
    p_fc.add_argument("--export-trace", nargs="?", const="", default=None,
                      metavar="PATH",
                      help="record phase/halo/checkpoint spans and write "
                           "a Chrome trace-event JSON (default PATH: "
                           "<rundir>/trace.json, else ./trace.json)")
    p_fc.add_argument("--export-metrics", nargs="?", const="", default=None,
                      metavar="PATH",
                      help="collect metrics and write a metrics.json "
                           "snapshot (default PATH: <rundir>/metrics.json, "
                           "else ./metrics.json)")
    p_fc.add_argument("--ranks", type=_positive_int, default=1, metavar="N",
                      help="run distributed on N simulated MPI ranks with "
                           "in-flight failure survival (default: 1 = "
                           "single process)")
    p_fc.add_argument("--spare-ranks", type=int, default=None, metavar="N",
                      help="spare-rank pool for respawn recovery "
                           "(distributed runs; default: 0)")
    p_fc.add_argument("--max-rank-failures", type=int, default=None,
                      metavar="N",
                      help="recovery rounds before the survivable run "
                           "falls back to single-process (default: 2)")
    p_fc.add_argument("--recovery-policy", dest="policy", default=None,
                      choices=["auto", "shrink", "respawn"],
                      help="how to recover a lost rank: respawn from the "
                           "spare pool, shrink onto the survivors, or "
                           "auto (the default: respawn while spares last, "
                           "then shrink)")
    p_fc.add_argument("--hedge-stragglers", action="store_true", default=None,
                      help="speculatively migrate a straggling rank's "
                           "blocks to the least-loaded rank (needs "
                           "--ranks >= 3)")

    p_sw = sub.add_parser("sweep", help="cross-platform runtime sweep")
    p_sw.add_argument("--sockets", type=int, nargs="+",
                      default=[4, 8, 16, 32])
    p_sw.add_argument("--systems", nargs="*", default=None)
    p_sw.add_argument("--comm", default="gdr_tuned",
                      choices=["host", "naive", "gdr", "gdr_tuned"])

    p_bl = sub.add_parser("balance", help="run the load-balance optimizer")
    p_bl.add_argument("--system", default="squid-gpu")
    p_bl.add_argument("--ranks", type=_positive_int, default=16)

    p_va = sub.add_parser(
        "validate",
        help="preflight a scenario JSON or run directory (no stepping)",
    )
    p_va.add_argument("target",
                      help="scenario .json file or run directory to screen")
    p_va.add_argument("--rundir", default=None, metavar="DIR",
                      help="additionally screen this run directory "
                           "(journal/snapshot integrity)")

    p_re = sub.add_parser(
        "resume",
        help="continue an interrupted forecast from its run directory",
    )
    p_re.add_argument("rundir", help="run directory of the interrupted run")

    p_in = sub.add_parser(
        "inspect",
        help="summarize a run directory from its telemetry artifacts",
        epilog=INSPECT_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_in.add_argument("rundir", help="run directory to inspect")
    p_in.add_argument("--top", type=int, default=10, metavar="N",
                      help="number of slowest spans to list (default: 10)")
    p_in.add_argument("--request", default=None, metavar="ID",
                      help="render this request's flight-recorder "
                           "timeline instead of the aggregate report")
    for kind in guards.KINDS:
        p_in.add_argument(
            f"--{kind.name}", action="store_true",
            help=f"render the {kind.title} report ({kind.artifact}) "
                 f"instead of the aggregate report; exits "
                 f"{kind.exit_worst} on a {kind.worst} verdict",
        )

    p_sl = sub.add_parser(
        "slo",
        help="evaluate SLO attainment / error budgets from slo.json",
    )
    p_sl.add_argument("target",
                      help="slo.json path, or a run directory holding one")

    p_rt = sub.add_parser(
        "retune",
        help="recalibrate the perf model from a traced run and re-tune "
             "the decomposition",
    )
    p_rt.add_argument("--from-rundir", required=True, metavar="DIR",
                      help="run directory holding a trace.json with "
                           "kernel spans")
    p_rt.add_argument("--system", default="squid-gpu",
                      help="Table-II system whose platform anchors the "
                           "drift report (default: squid-gpu)")
    p_rt.add_argument("--ranks", type=_positive_int, default=16,
                      help="ranks for the re-tuned decomposition "
                           "(default: 16)")
    p_rt.add_argument("--grid", default="kochi",
                      choices=["kochi", "mini-kochi"],
                      help="grid to re-tune (default: kochi)")
    p_rt.add_argument("--iterations", type=_positive_int, default=2000,
                      help="hill-climb iterations (default: 2000)")
    p_rt.add_argument("--seed", type=int, default=0,
                      help="hill-climb RNG seed (default: 0)")

    p_se = sub.add_parser(
        "serve",
        help="run the overload-safe forecast service (soak or spool)",
    )
    p_se.add_argument("--soak", action="store_true",
                      help="run the deterministic overload soak harness "
                           "instead of a request spool")
    p_se.add_argument("--requests", default=None, metavar="FILE",
                      help="JSONL spool of requests (see `repro submit "
                           "--spool`); optional per-line 'at' field gives "
                           "the arrival time [s]")
    p_se.add_argument("--backend", default="local",
                      choices=["local", "sim"],
                      help="spool execution backend: real mini-Kochi "
                           "numerics or the cost-model simulator "
                           "(default: local)")
    p_se.add_argument("--duration", type=_positive_float, default=3600.0,
                      metavar="S",
                      help="soak duration in simulated seconds "
                           "(default: 3600)")
    p_se.add_argument("--rate", type=_positive_float, default=3.0,
                      metavar="X",
                      help="soak arrival rate as a multiple of service "
                           "capacity (default: 3.0)")
    p_se.add_argument("--seed", type=int, default=0,
                      help="soak arrival-process seed (default: 0)")
    p_se.add_argument("--workers", type=_positive_int, default=2,
                      metavar="N",
                      help="concurrent execution slots (default: 2)")
    p_se.add_argument("--queue-capacity", type=_positive_int, default=24,
                      metavar="N",
                      help="admission queue bound (default: 24)")
    p_se.add_argument("--diverge-fraction", type=float, default=0.0,
                      metavar="F",
                      help="(soak only) deterministic fraction of "
                           "scenarios whose runs diverge; the simulated "
                           "sentinel aborts them early and stamps the "
                           "verdict (default: 0)")
    p_se.add_argument("--corrupt-fraction", type=float, default=0.0,
                      metavar="F",
                      help="(soak only) deterministic fraction of runs "
                           "hit by a simulated bit flip; most are caught "
                           "and corrected, the rest complete with an "
                           "explicit corrupted verdict (default: 0)")
    p_se.add_argument("--export-metrics", default=None, metavar="PATH",
                      help="write a metrics.json snapshot (shed/latency/"
                           "queue-depth series) after serving")
    p_se.add_argument("--rundir", default=None, metavar="DIR",
                      help="(soak only) write slo.json, trace.json, "
                           "metrics.json, and flight/ recordings into DIR; "
                           "arms the tracer for per-request trace trees")

    p_su = sub.add_parser(
        "submit",
        help="build one forecast request for the service",
    )
    p_su.add_argument("--deadline", type=_positive_float, required=True,
                      metavar="S",
                      help="deadline budget from submission [s]")
    p_su.add_argument("--class", dest="klass", default="normal",
                      choices=["critical", "high", "normal", "low"],
                      help="request class (default: normal)")
    p_su.add_argument("--tenant", default="default",
                      help="tenant name for the bulkhead quota")
    p_su.add_argument("--scenario", default=None, metavar="FILE",
                      help="scenario spec JSON; default builds a "
                           "mini-Kochi gaussian scenario")
    p_su.add_argument("--minutes", type=_positive_float, default=2.0,
                      help="simulated minutes for the default scenario")
    p_su.add_argument("--amplitude", type=float, default=2.0,
                      help="source amplitude for the default scenario")
    p_su.add_argument("--at", type=_positive_float, default=None,
                      metavar="S",
                      help="arrival time recorded in the spool entry")
    p_su.add_argument("--spool", default=None, metavar="FILE",
                      help="append the request to this JSONL spool")
    p_su.add_argument("--run", action="store_true",
                      help="run the request immediately on a one-shot "
                           "local service")
    p_su.set_defaults(source="gaussian")  # the one source submit builds

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.obs.log import configure as _configure_logging

    _configure_logging(level=args.log_level, json_mode=args.log_json)
    return {
        "grid": _cmd_grid,
        "forecast": _cmd_forecast,
        "sweep": _cmd_sweep,
        "balance": _cmd_balance,
        "validate": _cmd_validate,
        "resume": _cmd_resume,
        "inspect": _cmd_inspect,
        "slo": _cmd_slo,
        "retune": _cmd_retune,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
