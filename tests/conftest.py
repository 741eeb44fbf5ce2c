"""Fixtures shared by the test modules."""

import pytest

from twinmeans import sieve


@pytest.fixture
def sieved(monkeypatch):
    """(lo, hi) of every sieve._marked_windows call made while the test
    runs.  Every reader of the sieve in the package goes through that
    generator of marked windows."""
    spans = []
    real = sieve._marked_windows

    def counting(lo, hi, *args, **kwargs):
        spans.append((int(lo), int(hi)))
        return real(lo, hi, *args, **kwargs)

    monkeypatch.setattr(sieve, "_marked_windows", counting)
    return spans
