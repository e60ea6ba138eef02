"""Tests for Mathis constant fitting and prediction error computation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.mathis_fit import FlowObservation, fit_mathis
from repro.models.mathis import mathis_throughput
from repro.units import MSS


def synthetic_flows(c, n=20, interpretation="halving"):
    """Flows that follow the Mathis model exactly with constant ``c``."""
    flows = []
    for i in range(n):
        p = 0.001 * (i + 1)
        rtt = 0.02 + 0.005 * (i % 4)
        goodput = mathis_throughput(MSS, rtt, p, c)
        loss = p if interpretation == "loss" else p * 3
        halving = p if interpretation == "halving" else p / 3
        flows.append(FlowObservation(goodput, rtt, loss, halving))
    return flows


def test_recovers_exact_constant():
    flows = synthetic_flows(c=1.4)
    fit = fit_mathis(flows, "halving", MSS)
    assert fit.constant == pytest.approx(1.4, rel=1e-9)
    assert fit.median_error == pytest.approx(0.0, abs=1e-9)


def test_interpretation_selects_field():
    flows = [FlowObservation(1e6, 0.02, 0.01, 0.002)]
    assert flows[0].p("loss") == 0.01
    assert flows[0].p("halving") == 0.002
    with pytest.raises(ValueError):
        flows[0].p("bogus")


def test_noisy_fit_has_nonzero_error():
    flows = synthetic_flows(c=1.4)
    # Perturb half the flows' goodput by +50%.
    for f in flows[::2]:
        f.goodput_bps *= 1.5
    fit = fit_mathis(flows, "halving", MSS)
    assert fit.median_error > 0.05


def test_zero_p_flows_excluded():
    flows = synthetic_flows(c=1.0) + [FlowObservation(1e6, 0.02, 0.0, 0.0)]
    fit = fit_mathis(flows, "halving", MSS)
    assert len(fit.per_flow_errors) == 20


def test_all_zero_p_raises():
    flows = [FlowObservation(1e6, 0.02, 0.0, 0.0)]
    with pytest.raises(ValueError):
        fit_mathis(flows, "loss", MSS)


@given(st.floats(0.2, 10.0), st.integers(3, 40))
@settings(max_examples=100, deadline=None)
def test_fit_recovers_any_constant(c, n):
    flows = synthetic_flows(c=c, n=n)
    fit = fit_mathis(flows, "halving", MSS)
    assert math.isclose(fit.constant, c, rel_tol=1e-6)
