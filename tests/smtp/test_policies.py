"""Tests for server policy semantics."""

import pytest

from repro.smtp.policies import (
    FailureStage,
    GreylistPolicy,
    RecipientPolicy,
    ServerPolicy,
    SpfTiming,
)


class TestSpfTiming:
    def test_nomsg_triggers(self):
        assert SpfTiming.ON_MAIL_FROM.triggered_by_nomsg
        assert SpfTiming.ON_DATA_COMMAND.triggered_by_nomsg
        assert not SpfTiming.AFTER_MESSAGE.triggered_by_nomsg
        assert not SpfTiming.NEVER.triggered_by_nomsg

    def test_blankmsg_triggers_everything_but_never(self):
        for timing in SpfTiming:
            expected = timing != SpfTiming.NEVER
            assert timing.triggered_by_blankmsg == expected

    def test_blankmsg_covers_nomsg(self):
        """Anything NoMsg can elicit, BlankMsg can too — the reason the
        paper's fallback ordering is sound."""
        for timing in SpfTiming:
            if timing.triggered_by_nomsg:
                assert timing.triggered_by_blankmsg


class TestRecipientPolicy:
    def test_accept_any(self):
        assert RecipientPolicy(accept_any=True).accepts("whoever")

    def test_username_list_case_insensitive(self):
        policy = RecipientPolicy(
            accept_any=False, accepted_usernames=frozenset({"postmaster"})
        )
        assert policy.accepts("Postmaster")
        assert not policy.accepts("abuse")

    def test_reject_all(self):
        assert not RecipientPolicy(accept_any=False).accepts("anyone")


class TestServerPolicy:
    def test_defaults_are_benign(self):
        policy = ServerPolicy()
        assert not policy.refuse_connections
        assert policy.failure_stage == FailureStage.NONE
        assert not policy.greylist.enabled
        assert policy.blacklists_after_probes is None
        assert policy.flaky_rate == 0.0

    def test_greylist_policy_window(self):
        greylist = GreylistPolicy(enabled=True, retry_after_seconds=300)
        assert greylist.retry_after_seconds == 300
