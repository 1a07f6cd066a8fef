"""Acceptance criteria, checked through the claims of the CLI suites.

Each suite runs once, at the built-in config, exactly as ``normcurve verify``
runs it; the tolerances are the claims' own, so none is written here.  Every
criterion prints one PASS/FAIL line per claim (visible with ``pytest -s`` or
``-rA``).  Run just this module with ``pytest tests/test_acceptance.py -v``.

Conditions of the criteria that have no claim of their own follow from a
claim's components and tolerances: the four-point obstruction circ4 > circ3
from C4, the named bow instance's inequality from C8's gaps, every Fary
polygon meeting L <= R * total turning to ``fary_check``'s rounding bound
from C9's success ratio, and a strictly positive chord/tangent minimum from
C10's success ratio.
"""

import functools

import pytest

from normcurve.cli import run_suite

SEED = 0


@pytest.fixture(scope="module")
def suite():
    """The report of a suite at the built-in config, run on first use."""
    return functools.cache(lambda name: run_suite(name, seed=SEED))


def _assert_claims(report, *claim_ids):
    claims = {c.claim_id: c for c in report.claims}
    for cid in claim_ids:
        assert cid in claims, f"suite {report.suite} reports no claim {cid}"
        c = claims[cid]
        detail = f"measured {c.measured}, expected {c.expected}, tolerance {c.tolerance}"
        print(f"[{cid}] {'PASS' if c.passed else 'FAIL'}: {detail}")
        assert c.passed, f"{cid} failed: {detail}"


def test_criterion_1_normal_curvature_constant(suite):
    report = suite("veronese")
    _assert_claims(report, "C1")
    assert report.runtime_seconds <= 60.0  # the whole suite, not C1 alone


def test_criterion_2_sphere_radius(suite):
    report = suite("veronese")
    _assert_claims(report, "C2")
    # two-sided: each radius is also certified minimal by the ball's dual bound
    assert report.environment["veronese.ball_max_gap"] <= 1e-12


def test_criterion_3_circle_geodesics(suite):
    _assert_claims(suite("veronese"), "C3")


def test_criterion_4_rigidity_arithmetic(suite):
    _assert_claims(suite("rigidity"), "C4", "R-geodesic-chord")


def test_criterion_5_mean_curvature_equality(suite):
    _assert_claims(suite("veronese"), "C5")


def test_criterion_6_sectional_curvature(suite):
    _assert_claims(suite("veronese"), "C6")


def test_criterion_7_torus_constant(suite):
    report = suite("torus")
    _assert_claims(report, "C7", "T-n1", "T-n3")
    env = report.environment
    assert env["torus.optimizer_evals"] <= env["torus.budget"]


def test_criterion_8_bow_property_suite(suite):
    _assert_claims(suite("curves"), "C8")


def test_criterion_9_fary_property_suite(suite):
    _assert_claims(suite("curves"), "C9")


def test_criterion_10_monotonicity_suite(suite):
    _assert_claims(suite("curves"), "C10")
