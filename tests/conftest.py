"""Shared fixtures."""

import contextlib
import os
from pathlib import Path

import pytest

import hrislink
from hrislink import bs_rx, hris_rx, rx_common


@pytest.fixture(autouse=True, scope="session")
def package_path_for_subprocesses():
    """Put the imported package's directory on ``PYTHONPATH``, so ``python -m hrislink.cli`` in a subprocess finds it
    also under a bare ``python -m pytest``, where only pytest's ``pythonpath`` setting does."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(Path(hrislink.__file__).resolve().parents[1]), prepend=os.pathsep)
        yield


@pytest.fixture
def raw_estimates(monkeypatch):
    """Make the receivers return their estimates before the anchor normalization.

    The raw channel and symbol estimates still carry the mutually compensating
    scaling ambiguity, which some tests inspect directly.
    """
    for module in (hris_rx, bs_rx):
        monkeypatch.setattr(module, "normalize_anchor", lambda report, per_stream: report)


@pytest.fixture(scope="session")
def als_start():
    """``with als_start(x0):`` starts every ALS run inside from a copy of ``x0`` instead of the receiver's own start.

    The receivers still compute their start (``bs_bals`` its closed-form solve); the loop gets ``x0`` in its place.
    Session-scoped, so property-based tests can take it too; each ``with`` block undoes its own patch.
    """
    @contextlib.contextmanager
    def start_from(x0):
        with pytest.MonkeyPatch.context() as patch:
            for module in (hris_rx, bs_rx):
                patch.setattr(module, "run_als", lambda *args: rx_common.run_als(*args[:-1], x0.copy()))
            yield
    return start_from
