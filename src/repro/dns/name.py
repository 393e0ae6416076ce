"""DNS domain names.

A :class:`Name` is an immutable sequence of labels, stored without the
trailing root label.  Comparisons are case-insensitive, as required by
RFC 1035 section 2.3.3, but the original spelling is preserved for
presentation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple, Union

from ..errors import NameError_

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 253  # presentation form, excluding trailing dot


def _validate_label(label: str) -> None:
    if not label:
        raise NameError_("empty label in domain name")
    if len(label) > MAX_LABEL_LENGTH:
        raise NameError_(f"label too long ({len(label)} > {MAX_LABEL_LENGTH}): {label!r}")


class Name:
    """An immutable DNS domain name.

    >>> n = Name.from_text("Mail.Example.COM")
    >>> n == Name.from_text("mail.example.com")
    True
    >>> n.labels
    ('Mail', 'Example', 'COM')
    >>> str(n)
    'Mail.Example.COM'
    """

    __slots__ = ("_labels", "_key", "_hash")

    # Bounded memo tables for the two hot construction paths.  Both are
    # cleared wholesale when full: probe names are unique by design, so an
    # LRU would churn without helping, while the fleet's repeated zone and
    # MTA names re-warm within one stage.
    _MEMO_CAP = 65536
    _FROM_TEXT: Dict[str, "Name"] = {}
    # Interning is keyed by the *spelled* labels, not the lowercase key —
    # case variants must stay distinct objects so str() round-trips.
    _INTERNED: Dict[Tuple[str, ...], "Name"] = {}

    def __init__(self, labels: Iterable[str]) -> None:
        labels = tuple(labels)
        for label in labels:
            if not label or len(label) > MAX_LABEL_LENGTH:
                _validate_label(label)
        joined = ".".join(labels)
        if len(joined) > MAX_NAME_LENGTH:
            raise NameError_(f"name too long ({len(joined)} > {MAX_NAME_LENGTH})")
        self._labels: Tuple[str, ...] = labels
        # Names are overwhelmingly lowercase already; alias the labels
        # tuple as the key instead of building a second tuple.
        if joined.lower() == joined:
            self._key: Tuple[str, ...] = labels
        else:
            self._key = tuple(l.lower() for l in labels)
        self._hash = None

    @classmethod
    def _make(cls, labels: Tuple[str, ...], key: Tuple[str, ...]) -> "Name":
        """Unchecked constructor for names derived from validated ones.

        Callers must pass label/key tuples sliced or reordered from an
        existing Name, so per-label validation and the length check can
        be skipped.
        """
        self = object.__new__(cls)
        self._labels = labels
        self._key = key
        self._hash = None
        return self

    def intern(self) -> "Name":
        """The canonical instance for this spelling.

        Interned names share one object per labels tuple, so hashing and
        equality hit the identity fast path.  Safe because Name is
        immutable; bounded by :data:`_MEMO_CAP`.
        """
        table = Name._INTERNED
        canon = table.get(self._labels)
        if canon is None:
            if len(table) >= Name._MEMO_CAP:
                table.clear()
            table[self._labels] = canon = self
        return canon

    @classmethod
    def root(cls) -> "Name":
        """The root name (zero labels)."""
        return cls(())

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse a presentation-format name. A single ``.`` is the root."""
        memo = cls._FROM_TEXT
        cached = memo.get(text)
        if cached is not None:
            return cached
        stripped = text.rstrip(".")
        name = (cls(()) if stripped == "" else cls(stripped.split("."))).intern()
        if len(memo) >= cls._MEMO_CAP:
            memo.clear()
        memo[text] = name
        return name

    # -- basic protocol ---------------------------------------------------

    @property
    def labels(self) -> Tuple[str, ...]:
        return self._labels

    @property
    def key(self) -> Tuple[str, ...]:
        """The lowercase label tuple used for comparisons and dict keys."""
        return self._key

    def __str__(self) -> str:
        return ".".join(self._labels) if self._labels else "."

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Name):
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self._key)
        return h

    def __len__(self) -> int:
        return len(self._labels)

    # -- structure --------------------------------------------------------

    def is_root(self) -> bool:
        return not self._labels

    def parent(self) -> "Name":
        """The name with the leftmost label removed."""
        if not self._labels:
            raise NameError_("the root name has no parent")
        return Name._make(self._labels[1:], self._key[1:])

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if ``self`` equals ``other`` or sits beneath it."""
        if len(other._key) > len(self._key):
            return False
        if not other._key:
            return True
        return self._key[-len(other._key):] == other._key

    def concatenate(self, suffix: Union["Name", str]) -> "Name":
        """Append ``suffix``'s labels after this name's labels."""
        if isinstance(suffix, str):
            suffix = Name.from_text(suffix)
        return Name(self._labels + suffix._labels)

    def prepend(self, label: str) -> "Name":
        """Add one label at the left (hostname side)."""
        return Name((label,) + self._labels)
