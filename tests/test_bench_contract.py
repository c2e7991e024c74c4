"""The benchmark's tracer wraps fedka functions by name: every name it wraps
must exist, and removing the tracer must put every original back."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    return spans


def test_every_traced_name_exists(spans):
    missing = [f"{getattr(ns, '__name__', ns)}.{attr}"
               for _, sites in spans.TARGETS for ns, attr in sites if attr not in ns.__dict__]
    assert missing == []


def test_tracer_removal_restores_every_original(spans):
    sites = [(ns, attr) for _, entries in spans.TARGETS for ns, attr in entries]
    originals = [ns.__dict__[attr] for ns, attr in sites]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(ns.__dict__[attr] is not original
                   for (ns, attr), original in zip(sites, originals))
    finally:
        tracer.remove()
    assert all(ns.__dict__[attr] is original for (ns, attr), original in zip(sites, originals))
