"""The names the repo benchmark binds must keep resolving.

``bench/tracing.py`` measures per-layer shares by wrapping public
functions of the program where their callers bind them; it lives outside
``src/`` and outside the tier-1 ``testpaths``, so a rename under ``src/``
would otherwise only fail in the benchmark pipeline.  This test fails it
here instead.
"""

import inspect
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    import bench.tracing
    return bench.tracing


def test_every_traced_name_resolves(tracing):
    targets = tracing._targets()
    assert targets
    missing = []
    for owner, attr, _layer, _group, _units in targets:
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    assert not missing, f"bench/tracing.py binds names that are gone: " \
                        f"{missing}"


def test_recorder_install_uninstall_round_trips(tracing):
    names = [(owner, attr) for owner, attr, *_ in tracing._targets()]
    before = [inspect.getattr_static(owner, attr) for owner, attr in names]
    recorder = tracing.Recorder()
    try:
        recorder.install()
        patched = [inspect.getattr_static(owner, attr)
                   for owner, attr in names]
    finally:
        recorder.uninstall()
    after = [inspect.getattr_static(owner, attr) for owner, attr in names]
    assert all(new is not old for new, old in zip(patched, before))
    assert all(new is old for new, old in zip(after, before))
