"""Pin a test to one of the two kernel executors (``repro.core.loopnest``)."""

import contextlib
from types import SimpleNamespace

import pytest

from repro.core import loopnest


@contextlib.contextmanager
def on_numpy():
    """The NumPy bodies run the kernels, as where no compiler built the nest."""
    with on_nests({}):
        yield


@contextlib.contextmanager
def on_nests(nests):
    """*nests* (``loopnest._load``'s by dtype char; none: NumPy) run the kernels."""
    choice = loopnest.choice()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(choice, "nests", nests)
        patch.setattr(choice, "executor", "nest" if nests else "numpy")
        yield


def compiled_nests():
    """This process's nests, or skip: the platform's executor is NumPy."""
    choice = loopnest.choice()
    if choice.executor != "nest":
        pytest.skip(f"no compiled nest here: {choice.reason}")
    return choice.nests


def wrapped(nests, wrap):
    """*nests* with every entry point ``fn`` replaced by ``wrap(name, fn)``."""
    return {
        char: SimpleNamespace(**{name: wrap(name, fn) for name, fn in vars(nest).items()})
        for char, nest in nests.items()
    }
