"""Tests for repro.dns.name."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.name import MAX_LABEL_LENGTH, Name
from repro.errors import NameError_

label_st = st.text(
    alphabet=st.characters(min_codepoint=ord("a"), max_codepoint=ord("z")),
    min_size=1,
    max_size=8,
)
name_st = st.lists(label_st, min_size=0, max_size=8).map(Name)


class TestConstruction:
    def test_from_text_splits_labels(self):
        assert Name.from_text("mail.example.com").labels == ("mail", "example", "com")

    def test_trailing_dot_ignored(self):
        assert Name.from_text("example.com.") == Name.from_text("example.com")

    def test_root_from_dot(self):
        assert Name.from_text(".").is_root()

    def test_root_from_empty(self):
        assert Name.from_text("").is_root()

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("a..b")

    def test_label_too_long_rejected(self):
        with pytest.raises(NameError_):
            Name(["x" * (MAX_LABEL_LENGTH + 1)])

    def test_label_at_limit_accepted(self):
        assert len(Name(["x" * MAX_LABEL_LENGTH]).labels[0]) == MAX_LABEL_LENGTH

    def test_name_too_long_rejected(self):
        with pytest.raises(NameError_):
            Name(["a" * 60] * 5)


class TestEquality:
    def test_case_insensitive_equality(self):
        assert Name.from_text("Mail.EXAMPLE.com") == Name.from_text("mail.example.COM")

    def test_case_preserved_in_presentation(self):
        assert str(Name.from_text("Mail.Example.COM")) == "Mail.Example.COM"

    def test_hash_case_insensitive(self):
        assert hash(Name.from_text("A.B")) == hash(Name.from_text("a.b"))

    def test_inequality(self):
        assert Name.from_text("a.com") != Name.from_text("b.com")

    def test_not_equal_to_string(self):
        assert Name.from_text("a.com") != "a.com"


class TestStructure:
    def test_parent_strips_leftmost(self):
        assert Name.from_text("a.b.c").parent() == Name.from_text("b.c")

    def test_root_has_no_parent(self):
        with pytest.raises(NameError_):
            Name.root().parent()

    def test_subdomain_of_self(self):
        name = Name.from_text("example.com")
        assert name.is_subdomain_of(name)

    def test_subdomain_true(self):
        assert Name.from_text("a.example.com").is_subdomain_of(
            Name.from_text("example.com")
        )

    def test_subdomain_case_insensitive(self):
        assert Name.from_text("a.EXAMPLE.com").is_subdomain_of(
            Name.from_text("example.COM")
        )

    def test_subdomain_false_for_sibling(self):
        assert not Name.from_text("a.example.org").is_subdomain_of(
            Name.from_text("example.com")
        )

    def test_everything_is_subdomain_of_root(self):
        assert Name.from_text("a.b").is_subdomain_of(Name.root())

    def test_label_suffix_is_not_subdomain(self):
        # "ample.com" is a suffix string-wise but not label-wise.
        assert not Name.from_text("ample.com").is_subdomain_of(
            Name.from_text("example.com")
        )

    def test_concatenate(self):
        joined = Name.from_text("www").concatenate("example.com")
        assert joined == Name.from_text("www.example.com")

    def test_prepend(self):
        assert Name.from_text("example.com").prepend("mail") == Name.from_text(
            "mail.example.com"
        )


class TestProperties:
    @given(name_st)
    def test_text_roundtrip(self, name):
        assert Name.from_text(str(name)) == name

    @given(name_st, label_st)
    def test_prepend_then_parent(self, name, label):
        assert name.prepend(label).parent() == name
