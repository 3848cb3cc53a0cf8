"""Run-directory artifacts: one atomic publisher, one JSON loader.

Every single-file artifact a run leaves behind (the guard documents,
``slo.json``, ``metrics.json``, ``trace.json``, ``flight/<id>.json``,
bench documents, the distributed eta product, the gauge CSV) is written
through :func:`publishing` and, when JSON, read back through
:func:`load_json_artifact`: one durability rule, one rejection rule.
A leaf (only :mod:`repro.errors` at import time) for every layer to use.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

from repro.errors import PersistError


@contextlib.contextmanager
def publishing(path, mode: str = "w"):
    """Atomically publish one file; yields the open handle to write to.

    The body writes a hidden ``.tmp-<name>`` sibling; a clean exit
    flushes and fsyncs it, ``os.replace``-s it over *path* and fsyncs the
    parent directory (:func:`repro.persist.snapshot.fsync_dir` says
    why), so a reader sees the old file or the complete new one, never a
    torn one.  Any failure removes the temporary; an ``OSError`` becomes
    :class:`~repro.errors.PersistError`.
    """
    # Looked up in its module per call: the crash-safety tests observe
    # the directory flush by patching it there.
    from repro.persist import snapshot

    path = Path(path)
    tmp = path.with_name(f".tmp-{path.name}")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        snapshot.fsync_dir(path.parent)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise PersistError(f"cannot publish {path}: {exc}") from exc
        raise


def publish_json(path, doc: dict, **dump_kwargs) -> Path:
    """Atomically publish *doc* as a JSON artifact; returns its path."""
    with publishing(path) as fh:
        json.dump(doc, fh, **dump_kwargs)
        fh.write("\n")
    return Path(path)


def load_json_artifact(path, schema=None, what="a JSON artifact") -> dict:
    """Load one JSON artifact, or raise :class:`~repro.errors.PersistError`.

    Rejected: a missing or unreadable file, bytes that are not JSON, a
    top level that is not an object and, when *schema* is given, any
    other ``schema`` stamp.  *what* names the artifact kind in the
    message ("an SLO report").
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise PersistError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise PersistError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PersistError(f"{path} is not {what}: not a JSON object")
    if schema is not None and doc.get("schema") != schema:
        raise PersistError(
            f"{path} is not {what} "
            f"(schema {doc.get('schema')!r}, want {schema!r})"
        )
    return doc


@contextlib.contextmanager
def rejecting_malformed(source):
    """Turn a reader's lookup errors into :class:`PersistError`.

    Wraps code that *reads* a loaded artifact (a renderer, a span
    projection): a document that parses but lacks the fields or types its
    reader needs ends in an error naming *source*, not in a traceback.
    """
    try:
        yield
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise PersistError(
            f"{source} is malformed: {type(exc).__name__}: {exc}"
        ) from exc
