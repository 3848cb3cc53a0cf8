"""Run-directory artifacts: the one publisher, the one loader, and the
CLI's promise that a hostile artifact ends in a structured error."""

import json

import pytest

from repro.artifacts import load_json_artifact, publish_json, publishing
from repro.cli import main
from repro.errors import PersistError
from repro.guards import INTEGRITY, PHYSICS
from repro.obs.flight import FLIGHT_SCHEMA, load_flight
from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.slo import SLO_SCHEMA

REQUEST_ID = "req-7"

#: A trace with one phase span, so the aggregate view gets as far as
#: rendering ``metrics.json``.
GOOD_TRACE = {
    "traceEvents": [
        {"name": "NLMASS", "cat": "step", "ph": "X", "pid": 0, "tid": 0,
         "ts": 0.0, "dur": 5.0},
    ]
}

#: artifact -> (path under the run directory, argv after the run
#: directory, documented exit code of that view, a schema-valid but
#: field-starved document).
VIEWS = {
    "trace.json": (
        "trace.json", ["inspect"], 3, {"traceEvents": [5]},
    ),
    "metrics.json": (
        "metrics.json", ["inspect"], 3,
        {"schema": METRICS_SCHEMA, "gauges": []},
    ),
    "slo.json": (
        "slo.json", ["slo"], 3,
        {"schema": SLO_SCHEMA, "slos": [{"name": "x"}]},
    ),
    "physics.json": (
        "physics.json", ["inspect", "--physics"], 6,
        {"schema": PHYSICS.schema, "samples": [5]},
    ),
    "integrity.json": (
        "integrity.json", ["inspect", "--integrity"], 6,
        {"schema": INTEGRITY.schema, "detections": 5},
    ),
    "flight": (
        f"flight/{REQUEST_ID}.json", ["inspect", "--request", REQUEST_ID],
        5, {"schema": FLIGHT_SCHEMA, "events": [5]},
    ),
}

HOSTILE = {
    "truncated": lambda starved: json.dumps(starved)[:-3],
    "array": lambda starved: "[]",
    "empty-object": lambda starved: "{}",
    "wrong-schema": lambda starved: json.dumps({"schema": "something/else"}),
    "field-starved": json.dumps,
}


class TestHostileArtifacts:
    @pytest.mark.parametrize("damage", sorted(HOSTILE))
    @pytest.mark.parametrize("artifact", sorted(VIEWS))
    def test_hostile_artifact_is_a_structured_error(
        self, tmp_path, capsys, artifact, damage
    ):
        relpath, argv, exit_code, starved = VIEWS[artifact]
        if artifact == "metrics.json":
            (tmp_path / "trace.json").write_text(json.dumps(GOOD_TRACE))
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(HOSTILE[damage](starved))

        code = main([argv[0], str(tmp_path), *argv[1:]])

        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1, out
        err = json.loads(out[0])["error"]
        assert code == err["exit_code"] == exit_code
        assert err["detail"]

    def test_good_trace_fixture_really_renders(self, tmp_path, capsys):
        """The metrics cases above fail *because of* metrics.json."""
        (tmp_path / "trace.json").write_text(json.dumps(GOOD_TRACE))
        assert main(["inspect", str(tmp_path)]) == 0
        assert "NLMASS" in capsys.readouterr().out

    def test_load_flight_raises_persist_error(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"schema": ')
        with pytest.raises(PersistError, match="not valid JSON"):
            load_flight(path)
        path.write_text("{}")
        with pytest.raises(PersistError, match="not a flight recording"):
            load_flight(path)


class TestLoader:
    def test_each_rejection_names_the_path(self, tmp_path):
        path = tmp_path / "doc.json"
        with pytest.raises(PersistError, match="cannot read"):
            load_json_artifact(path)
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(PersistError, match="not valid JSON"):
            load_json_artifact(path)
        path.write_text("[1, 2]")
        with pytest.raises(PersistError, match="not a JSON object"):
            load_json_artifact(path)
        path.write_text('{"schema": "a/1"}')
        with pytest.raises(PersistError, match="want 'b/1'"):
            load_json_artifact(path, "b/1", "a b document")
        assert load_json_artifact(path, "a/1") == {"schema": "a/1"}
        assert load_json_artifact(path) == {"schema": "a/1"}


class TestPublisher:
    def test_publish_replaces_whole_file_and_leaves_no_temporary(
        self, tmp_path
    ):
        path = tmp_path / "doc.json"
        publish_json(path, {"v": 1})
        assert publish_json(path, {"v": 2}, indent=2) == path
        assert json.loads(path.read_text()) == {"v": 2}
        assert path.read_text().endswith("\n")
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_failing_body_keeps_old_file_and_removes_temporary(
        self, tmp_path
    ):
        path = tmp_path / "doc.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with publishing(path, "wb") as fh:
                fh.write(b"half")
                raise RuntimeError("writer died")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.bin"]

    def test_unwritable_destination_is_a_persist_error(self, tmp_path):
        with pytest.raises(PersistError, match="cannot publish"):
            publish_json(tmp_path / "no-such-dir" / "doc.json", {})
