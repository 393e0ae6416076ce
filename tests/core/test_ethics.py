"""Tests for the measurement's ethical limits."""

import datetime as dt

import pytest

from repro.core.ethics import EthicsControls, EthicsViolation

T0 = dt.datetime(2021, 10, 11, tzinfo=dt.timezone.utc)


class TestConcurrency:
    def test_cap_enforced(self):
        ethics = EthicsControls(max_concurrent_connections=2)
        ethics.connection_opened("10.0.0.1", T0)
        ethics.connection_opened("10.0.0.2", T0)
        with pytest.raises(EthicsViolation):
            ethics.connection_opened("10.0.0.3", T0)

    def test_paper_cap_is_250(self):
        assert EthicsControls().max_concurrent_connections == 250

    def test_closing_frees_slot(self):
        ethics = EthicsControls(max_concurrent_connections=1)
        ethics.connection_opened("10.0.0.1", T0)
        ethics.connection_closed()
        ethics.connection_opened("10.0.0.2", T0)

    def test_peak_concurrency_tracked(self):
        ethics = EthicsControls()
        ethics.connection_opened("10.0.0.1", T0)
        ethics.connection_opened("10.0.0.2", T0)
        ethics.connection_closed()
        assert ethics.peak_concurrency == 2

    def test_unbalanced_close_rejected(self):
        with pytest.raises(EthicsViolation):
            EthicsControls().connection_closed()


class TestReconnectWaits:
    def test_90_second_minimum(self):
        ethics = EthicsControls()
        ethics.connection_opened("10.0.0.1", T0)
        ethics.connection_closed()
        with pytest.raises(EthicsViolation):
            ethics.connection_opened("10.0.0.1", T0 + dt.timedelta(seconds=30))

    def test_reconnect_after_wait_allowed(self):
        ethics = EthicsControls()
        ethics.connection_opened("10.0.0.1", T0)
        ethics.connection_closed()
        ethics.connection_opened("10.0.0.1", T0 + dt.timedelta(seconds=90))

    def test_different_ips_need_no_wait(self):
        ethics = EthicsControls()
        ethics.connection_opened("10.0.0.1", T0)
        ethics.connection_opened("10.0.0.2", T0)

    def test_earliest_recontact(self):
        ethics = EthicsControls()
        assert ethics.earliest_recontact("10.0.0.1") is None
        ethics.connection_opened("10.0.0.1", T0)
        assert ethics.earliest_recontact("10.0.0.1") == T0 + dt.timedelta(seconds=90)

    def test_greylist_wait_is_eight_minutes(self):
        ethics = EthicsControls()
        ethics.connection_opened("10.0.0.1", T0)
        assert ethics.earliest_recontact(
            "10.0.0.1", greylisted=True
        ) == T0 + dt.timedelta(minutes=8)

    def test_reset_round_keeps_waits(self):
        ethics = EthicsControls()
        ethics.connection_opened("10.0.0.1", T0)
        ethics.reset_round()
        with pytest.raises(EthicsViolation):
            ethics.connection_opened("10.0.0.1", T0 + dt.timedelta(seconds=10))
