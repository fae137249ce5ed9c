"""The check registry behind ``drauc verify``: each check is defined once,
with its name and quick sizes, and ``run_all`` runs every one of them."""

import inspect

import pytest

import drauc.verification as verification
from drauc.verification import _CHECKS, CheckResult, run_all


def test_registry_holds_each_check_once():
    names = [name for name, _, _ in _CHECKS]
    attrs = [attr for _, attr, _ in _CHECKS]
    assert len(_CHECKS) == 19
    assert len(set(names)) == len(set(attrs)) == 19
    assert sorted(attrs) == sorted(a for a in vars(verification) if a.startswith("check_"))
    for _, attr, quick in _CHECKS:
        params = inspect.signature(getattr(verification, attr)).parameters
        assert set(quick) <= set(params), (attr, quick)


def test_run_all_calls_each_check_through_its_module_attribute(monkeypatch):
    # A wrapper installed on the module, as a tracer installs one, is what
    # runs, at both scales and in definition order.
    calls = []

    def stub_for(name):
        def stub(**sizes):
            calls.append((name, sizes))
            return CheckResult(name, False, "stubbed")
        return stub

    for name, attr, _ in _CHECKS:
        monkeypatch.setattr(verification, attr, stub_for(name))
    names = [name for name, _, _ in _CHECKS]
    full, quick = run_all(), run_all("quick")
    assert [r.name for r in full] == [r.name for r in quick] == names
    assert all(r.detail == "stubbed" for r in full + quick)
    assert calls == [(name, {}) for name in names] + \
        [(name, quick) for name, _, quick in _CHECKS]


def test_check_returns_a_timed_result():
    res = verification.check_init_determinism()
    assert (res.name, res.passed) == ("model.init_determinism", True)
    assert res.seconds > 0.0


@pytest.mark.parametrize("attr, quick", [(attr, quick) for _, attr, quick in _CHECKS],
                         ids=[attr for _, attr, _ in _CHECKS])
def test_negative_seed_names_the_seed(attr, quick):
    # Every check's seed goes through ``data.seeded_rng`` (or an entry point
    # that does), so a negative one is refused by name, not by NumPy.
    with pytest.raises(ValueError, match="seed"):
        getattr(verification, attr)(**quick, seed=-1)
