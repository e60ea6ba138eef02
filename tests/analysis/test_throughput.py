"""Tests for throughput share and ratio analyses."""

import pytest

from repro.analysis.throughput import group_shares, loss_to_halving_ratio


class TestGroupShares:
    def test_basic_split(self):
        goodputs = {0: 30.0, 1: 10.0, 2: 60.0}
        groups = {0: "cubic", 1: "cubic", 2: "reno"}
        shares = group_shares(goodputs, groups)
        assert shares == {"cubic": pytest.approx(0.4), "reno": pytest.approx(0.6)}

    def test_shares_sum_to_one(self):
        goodputs = {i: float(i + 1) for i in range(10)}
        groups = {i: "g" + str(i % 3) for i in range(10)}
        assert sum(group_shares(goodputs, groups).values()) == pytest.approx(1.0)

    def test_all_zero(self):
        shares = group_shares({0: 0.0, 1: 0.0}, {0: "a", 1: "b"})
        assert shares == {"a": 0.0, "b": 0.0}


class TestRatios:
    def test_loss_to_halving(self):
        assert loss_to_halving_ratio(60, 10) == 6.0

    def test_no_events_raises(self):
        with pytest.raises(ValueError):
            loss_to_halving_ratio(10, 0)

    def test_negative_losses_raise(self):
        with pytest.raises(ValueError):
            loss_to_halving_ratio(-1, 10)

