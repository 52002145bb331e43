"""Helpers shared by the test modules."""
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def checkout_env(**overrides: str) -> dict[str, str]:
    """The environment of a subprocess that must run this checkout's pathfield, not an installed one:
    this process's, with the given overrides and the checkout's src first on PYTHONPATH."""
    env = {**os.environ, **overrides}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env
