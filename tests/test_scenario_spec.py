"""One scenario spec, one meaning (``repro.persist.scenario``).

A spec meets three builders: the service's :class:`LocalBackend` (what it
hands the engine), :func:`build_scenario` (``repro forecast``, ``repro
resume``) and :func:`validate_scenario` (what ``repro validate`` checks).
The parity table runs each spec through all three and compares what they
build; the fuzz test throws generated hostile specs at the same doors and
at :meth:`ForecastService.submit`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _cli_spec, build_parser
from repro.errors import (
    ConfigurationError,
    ReproError,
    ServiceError,
    ServiceOverloadError,
)
from repro.persist import build_scenario, validate_scenario
from repro.persist.preflight import PreflightReport
from repro.persist.snapshot import grid_fingerprint
from repro.service import (
    ForecastRequest,
    ForecastService,
    LocalBackend,
    SimulatedBackend,
)

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "kochi_scenario.json"

GAUSSIAN = {"type": "gaussian"}

PARITY_SPECS = {
    "shipped-example": json.loads(EXAMPLE.read_text()),
    "spelled-out-gaussian": {
        "grid": "mini-kochi", "dt": 0.05, "n_steps": 40,
        "source": {"type": "gaussian", "x0": 5_000.0, "y0": 15_000.0,
                   "amplitude": 1.5, "sigma": 3_000.0},
    },
    "bare-gaussian": {"source": GAUSSIAN},
    "nankai-2-segments": {
        "grid": "mini-kochi", "n_steps": 30,
        "source": {"type": "nankai", "n_segments": 2},
    },
    "as-minutes": {"minutes": 0.02, "source": GAUSSIAN},
    "as-n_steps": {"n_steps": 12, "source": GAUSSIAN},
}


class _Captured(Exception):
    pass


def _fields(source):
    if source is None:
        return None
    if isinstance(source, (list, tuple)):
        return [dataclasses.asdict(s) for s in source]
    return dataclasses.asdict(source)


def _view(grid, config, source, n_steps):
    return {
        "grid": grid_fingerprint(grid, config.dtype),
        "dt": config.dt,
        "n_steps": n_steps,
        "source": _fields(source),
    }


def local_backend_view(spec, monkeypatch):
    """What LocalBackend hands the engine for *spec* (nothing is stepped)."""
    import repro.resilience.forecast as forecast

    def capture(grid, bathymetry, *, config, source, horizon_s, **_):
        raise _Captured(_view(
            grid, config, source, round(horizon_s / config.dt)
        ))

    monkeypatch.setattr(forecast, "run_resilient_forecast", capture)
    request = ForecastRequest(scenario=spec, deadline_s=3_600.0)
    with pytest.raises(_Captured) as got:
        LocalBackend().run(request, budget_s=None)
    return got.value.args[0]


def preflight_view(spec, monkeypatch):
    """What validate_scenario hands its checks for *spec*."""
    import repro.persist.preflight as preflight

    seen = {}

    def capture(grid, bathymetry, config, source, **_):
        seen.update(_view(grid, config, source, config.n_steps))
        return PreflightReport()

    monkeypatch.setattr(preflight, "preflight", capture)
    assert validate_scenario(spec).ok
    return seen


def builder_view(spec):
    built = build_scenario(spec)
    return _view(built.grid, built.config, built.source, built.n_steps)


@pytest.mark.parametrize("name", list(PARITY_SPECS))
def test_every_entry_point_builds_the_same_run(name, monkeypatch):
    spec = PARITY_SPECS[name]
    built = builder_view(spec)
    assert local_backend_view(spec, monkeypatch) == built
    assert preflight_view(spec, monkeypatch) == built


def test_the_parity_table_means_what_it_says():
    views = {name: builder_view(spec) for name, spec in PARITY_SPECS.items()}
    assert views["shipped-example"]["n_steps"] == 1_200  # 2 min at 0.1 s
    assert len(views["shipped-example"]["source"]) == 3
    assert len(views["nankai-2-segments"]["source"]) == 2
    # A bare gaussian is the built-in source of `repro forecast`.
    cli = build_scenario(_cli_spec(build_parser().parse_args(["forecast"])))
    assert views["bare-gaussian"]["source"] == _fields(cli.source)
    assert views["bare-gaussian"]["source"] == {
        "x0": 4_000.0, "y0": 16_000.0, "amplitude": 2.0, "sigma": 2_500.0,
    }
    # The same run as minutes and as steps, and from the CLI's flags.
    assert views["as-minutes"] == views["as-n_steps"]
    argv = ["forecast", "--minutes", "0.02"]
    assert _cli_spec(build_parser().parse_args(argv))["n_steps"] == 12


def test_minutes_become_round_of_minutes_over_dt():
    args = build_parser().parse_args(["forecast"])
    for k in range(1, 1_001):
        args.minutes = k / 100
        want = round(args.minutes * 60 / 0.1)
        assert build_scenario({"minutes": args.minutes}).n_steps == want
        assert _cli_spec(args)["n_steps"] == want


def test_the_shipped_example_is_admitted_and_priced():
    service = ForecastService(SimulatedBackend())
    example = PARITY_SPECS["shipped-example"]
    ticket = service.submit(ForecastRequest(scenario=example, deadline_s=3_600.0))
    service.run_until_idle()
    assert ticket.status == "done"
    assert ticket.result.fidelity.is_full


@pytest.mark.parametrize("spec", [
    {"dt": "abc"},
    {"dt": math.nan},
    {"minutes": math.inf},
    {"bathymetry": {"type": "flat"}},
    {"bathymetry": "flat"},
    {"source": "gaussian"},
    {"source": {"type": "gaussian", "x0": "east"}},
    {"grid": {"levels": [{"index": 1}]}},
], ids=repr)
def test_a_malformed_entry_is_a_configuration_error(spec):
    with pytest.raises(ConfigurationError):
        build_scenario(spec)
    assert not validate_scenario(spec).ok


# -- hostile specs --------------------------------------------------------

NAN, INF = math.nan, math.inf
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
NUMBER = st.one_of(
    st.floats(-1e9, 1e9), st.integers(-5, 10_000),
    st.sampled_from([0, -1, NAN, INF, -INF, 1e308]),
)
VALUE = st.one_of(NUMBER, JUNK)
# Loop counts stay small: a valid one of 10**9 is slow, not hostile.
COUNT = st.one_of(st.integers(-3, 12), st.sampled_from([2.5, NAN, INF, "3"]), JUNK)
# Inline grids stay small: preflight samples every cell of the grid (and
# for the same reason the 47M-cell "kochi" grid is left out).
BLOCK = st.lists(st.one_of(st.integers(-2, 30), JUNK), max_size=7)
LEVEL = st.one_of(st.fixed_dictionaries({}, optional={
    "index": st.one_of(st.integers(0, 3), JUNK),
    "dx": st.one_of(st.sampled_from([300.0, 100.0]), VALUE),
    "blocks": st.one_of(st.lists(BLOCK, max_size=3), JUNK),
}), JUNK)
GRID = st.one_of(
    st.sampled_from(["mini-kochi", "nowhere", None]),
    st.fixed_dictionaries({"levels": st.one_of(st.lists(LEVEL, max_size=3), JUNK)},
                          optional={"ratio": st.one_of(st.integers(-1, 5), JUNK)}),
    JUNK,
)
BATHYMETRY = st.one_of(st.fixed_dictionaries(
    {"type": st.one_of(st.sampled_from(["flat", "sloped", "shelf", "bog"]), JUNK)},
    optional={k: VALUE for k in ("depth", "offshore_depth", "slope", "ocean_depth")},
), JUNK)
SOURCE = st.one_of(st.fixed_dictionaries(
    {"type": st.one_of(st.sampled_from(["gaussian", "nankai", "okada"]), JUNK)},
    optional={
        **{k: VALUE for k in ("x0", "y0", "amplitude", "sigma", "magnitude_scale")},
        "n_segments": COUNT,
    },
), JUNK)
SPEC = st.fixed_dictionaries({}, optional={
    "grid": GRID, "bathymetry": BATHYMETRY, "source": SOURCE,
    "dt": VALUE, "n_steps": VALUE, "minutes": VALUE, "ranks": COUNT,
})


@settings(max_examples=300, deadline=None)
@given(spec=SPEC)
def test_a_hostile_spec_ends_in_a_library_error(spec):
    report = validate_scenario(spec)  # never raises
    try:
        build_scenario(spec)
        built = True
    except ReproError:
        built = False
    # One meaning: what the builder refuses, preflight refuses too ...
    assert built or not report.ok
    if not spec:
        return
    service = ForecastService(SimulatedBackend())
    try:
        service.submit(ForecastRequest(scenario=spec, deadline_s=60.0))
        refused = False
    except ServiceOverloadError:
        refused = False
    except ServiceError:
        refused = True
    # ... and the service refuses it at the door, and nothing else.
    assert refused == (not built)
