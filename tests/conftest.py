import os
from pathlib import Path

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
