"""Helpers shared by the test modules."""
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import pathfield.neural_field as neural_field

ROOT = Path(__file__).resolve().parents[1]


def checkout_env(**overrides: str) -> dict[str, str]:
    """The environment of a subprocess that must run this checkout's pathfield, not an installed one:
    this process's, with the given overrides and the checkout's src first on PYTHONPATH."""
    env = {**os.environ, **overrides}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def pools(monkeypatch):
    """Every pool neural_field._parallel builds during the test. Each records its size (`workers`),
    the threads it started (`started`, whose initializer ran) and the thread each submitted call
    ran on (`ran`). The cached pools are forgotten before the test, so that the test builds its
    own, and the test's pools are forgotten and shut down after it."""
    built = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, workers, initializer, initargs=()):
            self.workers, self.started, self.ran = workers, set(), []
            built.append(self)

            def start():
                self.started.add(threading.get_ident())
                initializer(*initargs)

            super().__init__(workers, initializer=start)

        def submit(self, fn, /, *args, **kwargs):
            def run():
                self.ran.append(threading.get_ident())
                return fn(*args, **kwargs)

            return super().submit(run)

    monkeypatch.setattr(neural_field, "ThreadPoolExecutor", RecordingPool)
    neural_field._pool.cache_clear()
    yield built
    neural_field._pool.cache_clear()
    for pool in built:
        pool.shutdown()
