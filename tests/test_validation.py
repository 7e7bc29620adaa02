"""The gate's check registry: its comparator, its time limit and its profiles.

Each fake check is registered into a throwaway registry, so the module's own
registry ends each test as it began.
"""

import argparse
import math

import pytest

from dwelltime import cli, validation


@pytest.fixture
def registry(monkeypatch):
    """An empty registry for fake checks; the real one is restored afterwards."""
    real, names = validation.CHECKS, [fn.name for fn in validation.CHECKS]
    monkeypatch.setattr(validation, "CHECKS", [])
    yield validation.CHECKS
    monkeypatch.undo()
    assert validation.CHECKS is real and [fn.name for fn in real] == names


def _fake(measured, bound, *ok, **kwargs):
    @validation.check("fake", bound, **kwargs)
    def check_fake():
        return (measured, "detail", *ok)

    return check_fake()


def test_strictly_below_the_bound_passes(registry):
    result = _fake(0.5, 1.0)
    assert result.passed and (result.name, result.measured, result.bound, result.detail) == (
        "fake", 0.5, 1.0, "detail")
    [fn] = registry
    assert (fn.__name__, fn.name, fn.profile) == ("check_fake", "fake", "fast")


@pytest.mark.parametrize("measured", [math.nan, 1.0, 2.0])
def test_nan_or_at_or_above_the_bound_fails(registry, measured):
    assert not _fake(measured, 1.0).passed


def test_returned_ok_replaces_the_comparison(registry):
    assert not _fake(0.5, 1.0, False).passed
    assert _fake(2.0, 1.0, True).passed


def test_a_body_that_takes_an_argument_is_given_the_bound(registry):
    @validation.check("fake", 0.25)
    def check_fake(bound):
        return 0.0, "", bound == 0.25

    assert check_fake().passed


def test_running_to_the_time_limit_fails(registry, monkeypatch):
    now = [0.0]
    monkeypatch.setattr(validation.time, "perf_counter", lambda: now[0])

    def timed(seconds):
        @validation.check("slow", 1.0, time_limit=10.0)
        def check_slow():
            now[0] += seconds
            return 0.0, ""

        return check_slow()

    assert timed(9.5).passed
    result = timed(10.0)
    assert not result.passed and result.elapsed == 10.0


def test_unknown_profile_raises():
    with pytest.raises(ValueError, match="unknown profile 'bogus'"):
        validation.run_validation("bogus")


def test_profiles_nest_in_registry_order():
    fast, full = validation.FAST_CHECKS, validation.FULL_CHECKS
    assert full == tuple(validation.CHECKS) and full[:len(fast)] == fast
    assert {fn.profile for fn in fast} == {"fast"} and {fn.profile for fn in full[len(fast):]} == {"full"}
    names = [fn.name for fn in full]
    assert len(set(names)) == len(names)
    assert list(validation.PROFILES) == ["fast", "full"]


def test_cli_profile_choices_are_the_registry_profiles():
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    [profile] = [a for a in subparsers.choices["validate"]._actions if a.dest == "profile"]
    assert tuple(profile.choices) == tuple(validation.PROFILES)


def _crossval_rows(elapsed):
    """_crossval_data's rows for three cases that converge at second order, each taking elapsed s."""
    base = {"dp": 4e-6, "dt": 4e-4, "d0": 8e-6, "book": 0.0, "overlap_spread": 0.0}
    return [{"base": base, "half": {k: v / 4.0 for k, v in base.items()}, "elapsed": elapsed}] * 3


def test_crossval_detail_holds_no_wall_time(monkeypatch):
    # validate prints the detail, and the slowest case's wall time in it made two runs'
    # lines differ; the 120 s limit on each case still fails the check
    details = []
    for elapsed, passed in ((0.4, True), (90.0, True), (130.0, False)):
        monkeypatch.setattr(validation, "_crossval_data", lambda elapsed=elapsed: _crossval_rows(elapsed))
        result = validation.check_crossval_timedomain()
        assert result.passed is passed, elapsed
        details.append(result.detail)
    assert len(set(details)) == 1, details
