"""Tests for repro.dns.message."""

from repro.dns.message import Message, Question, Rcode
from repro.dns.name import Name
from repro.dns.rdata import RRType


def _query(name="example.com", rrtype=RRType.A):
    return Message.make_query(Name.from_text(name), rrtype)


class TestMakeQuery:
    def test_question_set(self):
        message = _query("foo.example.com", RRType.TXT)
        assert message.question == Question(
            Name.from_text("foo.example.com"), RRType.TXT
        )

    def test_defaults(self):
        message = _query()
        assert message.rcode == Rcode.NOERROR
        assert message.answers == []
        assert message.authority == []


class TestMakeResponse:
    def test_echoes_question(self):
        query = _query()
        response = query.make_response()
        assert response.question == query.question
        assert response is not query

    def test_rcode_override(self):
        assert _query().make_response(Rcode.NXDOMAIN).rcode == Rcode.NXDOMAIN

    def test_sections_start_empty(self):
        response = _query().make_response()
        assert response.answers == []
        assert response.authority == []
