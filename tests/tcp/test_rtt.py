"""Tests for the RFC 6298 RTT estimator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.rtt import RttEstimator


def test_initial_rto():
    est = RttEstimator()
    assert est.rto == 1.0
    assert est.srtt is None


def test_first_sample_initialises_srtt_and_rttvar():
    est = RttEstimator()
    est.on_measurement(0.100)
    assert est.srtt == pytest.approx(0.100)
    assert est.rttvar == pytest.approx(0.050)
    # RTO = SRTT + 4*RTTVAR = 0.3, above the 0.2 floor.
    assert est.rto == pytest.approx(0.300)


def test_smoothing_follows_rfc_constants():
    est = RttEstimator()
    est.on_measurement(0.100)
    est.on_measurement(0.200)
    # rttvar = 3/4*0.05 + 1/4*|0.1-0.2| = 0.0625
    assert est.rttvar == pytest.approx(0.0625)
    # srtt = 7/8*0.1 + 1/8*0.2 = 0.1125
    assert est.srtt == pytest.approx(0.1125)


def test_min_rto_floor():
    est = RttEstimator()
    for _ in range(20):
        est.on_measurement(0.010)  # tiny, stable RTT
    assert est.rto == pytest.approx(0.2)


def test_max_rto_ceiling():
    est = RttEstimator()
    est.on_measurement(100.0)  # SRTT + 4*RTTVAR = 300 s
    assert est.rto == 60.0


def test_min_rtt_tracks_smallest():
    est = RttEstimator()
    for sample in (0.05, 0.03, 0.08, 0.04):
        est.on_measurement(sample)
    assert est.min_rtt == pytest.approx(0.03)
    assert est.latest_rtt == pytest.approx(0.04)


def test_backoff_doubles_rto():
    est = RttEstimator()
    est.on_measurement(0.1)
    base = est.rto
    est.on_timeout()
    assert est.rto == pytest.approx(min(2 * base, est.MAX_RTO))
    est.on_timeout()
    assert est.rto == pytest.approx(min(4 * base, est.MAX_RTO))


def test_backoff_capped():
    # Backoff multiplier caps at 64x (RFC 6298 allows a cap); the
    # absolute MAX_RTO is a second ceiling.
    est = RttEstimator()
    est.on_measurement(0.1)
    for _ in range(20):
        est.on_timeout()
    assert est.rto == pytest.approx(min(0.3 * 64, 60.0))
    capped = RttEstimator()
    capped.on_measurement(1.0)  # RTO 3 s: 64 x 3 s passes the ceiling
    for _ in range(20):
        capped.on_timeout()
    assert capped.rto == 60.0


def test_sample_clears_backoff():
    est = RttEstimator()
    est.on_measurement(0.1)
    est.on_timeout()
    est.on_measurement(0.1)
    # Second identical sample shrinks rttvar: 0.75*0.05 = 0.0375,
    # so RTO = 0.1 + 4*0.0375 = 0.25 with backoff cleared.
    assert est.rto == pytest.approx(0.25)


def test_reset_backoff():
    est = RttEstimator()
    est.on_measurement(0.1)
    est.on_timeout()
    est.reset_backoff()
    assert est.rto == pytest.approx(0.3)


def test_invalid_sample_rejected():
    est = RttEstimator()
    with pytest.raises(ValueError):
        est.on_measurement(0.0)
    with pytest.raises(ValueError):
        est.on_measurement(-1.0)


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("measure"), st.floats(min_value=1e-6, max_value=100.0)),
        st.tuples(st.just("timeout"), st.none()),
        st.tuples(st.just("reset"), st.none()),
    ),
    max_size=60,
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(steps=_STEPS)
def test_stored_rto_matches_its_formula(steps):
    # ``rto`` is stored, not computed on read: after every mutator it
    # must equal the formula exactly, not approximately.
    est = RttEstimator()
    assert est.rto == min(est._rto * est._backoff, est.MAX_RTO)
    for kind, value in steps:
        if kind == "measure":
            est.on_measurement(value)
        elif kind == "timeout":
            est.on_timeout()
        else:
            est.reset_backoff()
        assert est.rto == min(est._rto * est._backoff, est.MAX_RTO)
