"""Shared fixtures."""

import pytest

from hrislink import bs_rx, hris_rx


@pytest.fixture
def raw_estimates(monkeypatch):
    """Make the receivers return their estimates before the anchor normalization.

    The raw channel and symbol estimates still carry the mutually compensating
    scaling ambiguity, which some tests inspect directly.
    """
    for module in (hris_rx, bs_rx):
        monkeypatch.setattr(module, "normalize_anchor", lambda report, per_stream: report)
