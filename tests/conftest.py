import os
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

# Child interpreters do not read pytest's ``pythonpath``; they get this checkout's src explicitly.
SRC = str(Path(__file__).resolve().parents[1] / "src")

ACCEPTANCE_LINES = []


def child_env() -> dict:
    """The current environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class CallLog:
    """The calls made to watched functions: per key, the shape of one argument of each call."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self.shapes = defaultdict(list)

    def watch(self, owner, name: str, key=None, arg: int = 0):
        """Log each call of owner.name under ``key`` (default ``name``) with the shape of its
        positional argument ``arg``, until the test ends; returns owner."""
        fn = getattr(owner, name)
        shapes = self.shapes[key or name]

        def wrapper(*args, **kwargs):
            shapes.append(np.shape(args[arg]))
            return fn(*args, **kwargs)

        self._monkeypatch.setattr(owner, name, wrapper)
        return owner

    def eig(self) -> "CallLog":
        """Watch numpy's eigh and eigvalsh; a stacked call logs once, with its stack's shape."""
        self.watch(np.linalg, "eigh")
        self.watch(np.linalg, "eigvalsh")
        return self

    def count(self, *keys: str) -> int:
        return sum(len(self.shapes[key]) for key in keys)

    def matrices(self, *keys: str) -> int:
        """The matrices the calls under ``keys`` took, each matrix of a stack once."""
        return sum(int(np.prod(shape[:-2])) for key in keys for shape in self.shapes[key])

    def clear(self) -> None:
        for shapes in self.shapes.values():
            shapes.clear()


@pytest.fixture
def calls(monkeypatch) -> CallLog:
    """Counts calls of the functions a test watches; see CallLog."""
    return CallLog(monkeypatch)
