"""TLD composition of the two domain sets (paper Table 2).

The head of each distribution uses the paper's exact counts; the long
tail is filled from a pool of additional country-code and generic TLDs
with geometrically decaying weights, so generated populations match the
paper's head proportions at any scale.

The module also carries the TLD → country/coordinate hints the
geolocation model uses, and the per-TLD patch-propensity groups behind
the paper's Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Paper Table 2 — most common TLDs in the Alexa Top List set (counts out
#: of 418,842 domains).
ALEXA_TLD_HEAD: Dict[str, int] = {
    "com": 230_801,
    "ru": 19_844,
    "ir": 17_207,
    "net": 16_672,
    "org": 14_427,
    "in": 7_856,
    "io": 5_122,
    "au": 4_685,
    "vn": 4_326,
    "co": 4_250,
    "ua": 4_139,
    "tr": 4_117,
    "uk": 3_429,
    "id": 2_997,
    "ca": 2_835,
}
ALEXA_TOTAL = 418_842

#: Paper Table 2 — most common TLDs in the 2-Week MX set (of 22,911).
TWO_WEEK_TLD_HEAD: Dict[str, int] = {
    "com": 11_182,
    "org": 3_946,
    "edu": 2_108,
    "net": 1_441,
    "us": 828,
    "gov": 255,
    "uk": 241,
    "cam": 232,
    "ca": 172,
    "de": 149,
    "work": 142,
    "cn": 99,
    "au": 92,
    "it": 90,
    "top": 86,
}
TWO_WEEK_TOTAL = 22_911

#: Tail TLDs (beyond each table's head) used to fill the remainder.
TAIL_TLDS: Tuple[str, ...] = (
    "de", "fr", "pl", "cz", "br", "jp", "kr", "nl", "it", "es", "se", "ch",
    "at", "be", "dk", "no", "fi", "gr", "pt", "hu", "ro", "bg", "sk", "mx",
    "ar", "cl", "pe", "za", "eg", "ng", "ke", "il", "sa", "ae", "tw", "hk",
    "sg", "my", "th", "ph", "nz", "by", "kz", "info", "biz", "xyz", "online",
    "site", "club", "shop", "app", "dev", "me", "tv", "cc", "eu", "us", "il",
)


def _blend(head: Dict[str, int], total: int, tail_share_decay: float = 0.93) -> Dict[str, float]:
    """Head counts plus a geometric tail, normalized to probabilities."""
    weights = {tld: float(count) for tld, count in head.items()}
    remaining = total - sum(head.values())
    tail = [t for t in TAIL_TLDS if t not in head]
    # Geometric decay over the tail, scaled to consume `remaining`.
    raw = [tail_share_decay ** i for i in range(len(tail))]
    scale = remaining / sum(raw)
    for tld, weight in zip(tail, raw):
        weights[tld] = weight * scale
    norm = sum(weights.values())
    return {tld: weight / norm for tld, weight in weights.items()}


ALEXA_TLD_WEIGHTS: Dict[str, float] = _blend(ALEXA_TLD_HEAD, ALEXA_TOTAL)
TWO_WEEK_TLD_WEIGHTS: Dict[str, float] = _blend(TWO_WEEK_TLD_HEAD, TWO_WEEK_TOTAL)


@dataclass(frozen=True)
class TldInfo:
    """Geographic and behavioral hints for one TLD."""

    tld: str
    country: Optional[str]  # None for generic TLDs
    latitude: float
    longitude: float


#: ccTLD → (country, lat, lon).  Generic TLDs route through the global mix.
_CC: Dict[str, Tuple[str, float, float]] = {
    "ru": ("Russia", 55.7, 37.6),
    "ir": ("Iran", 35.7, 51.4),
    "in": ("India", 28.6, 77.2),
    "au": ("Australia", -33.9, 151.2),
    "vn": ("Vietnam", 21.0, 105.8),
    "co": ("Colombia", 4.7, -74.1),
    "ua": ("Ukraine", 50.5, 30.5),
    "tr": ("Turkey", 39.9, 32.9),
    "uk": ("United Kingdom", 51.5, -0.1),
    "id": ("Indonesia", -6.2, 106.8),
    "ca": ("Canada", 45.4, -75.7),
    "us": ("United States", 38.9, -77.0),
    "de": ("Germany", 52.5, 13.4),
    "fr": ("France", 48.9, 2.4),
    "pl": ("Poland", 52.2, 21.0),
    "cz": ("Czechia", 50.1, 14.4),
    "br": ("Brazil", -23.6, -46.6),
    "jp": ("Japan", 35.7, 139.7),
    "kr": ("South Korea", 37.6, 127.0),
    "nl": ("Netherlands", 52.4, 4.9),
    "it": ("Italy", 41.9, 12.5),
    "es": ("Spain", 40.4, -3.7),
    "se": ("Sweden", 59.3, 18.1),
    "ch": ("Switzerland", 47.4, 8.5),
    "at": ("Austria", 48.2, 16.4),
    "be": ("Belgium", 50.8, 4.4),
    "dk": ("Denmark", 55.7, 12.6),
    "no": ("Norway", 59.9, 10.8),
    "fi": ("Finland", 60.2, 24.9),
    "gr": ("Greece", 38.0, 23.7),
    "pt": ("Portugal", 38.7, -9.1),
    "hu": ("Hungary", 47.5, 19.0),
    "ro": ("Romania", 44.4, 26.1),
    "bg": ("Bulgaria", 42.7, 23.3),
    "sk": ("Slovakia", 48.1, 17.1),
    "mx": ("Mexico", 19.4, -99.1),
    "ar": ("Argentina", -34.6, -58.4),
    "cl": ("Chile", -33.5, -70.7),
    "pe": ("Peru", -12.0, -77.0),
    "za": ("South Africa", -26.2, 28.0),
    "eg": ("Egypt", 30.0, 31.2),
    "ng": ("Nigeria", 6.5, 3.4),
    "ke": ("Kenya", -1.3, 36.8),
    "il": ("Israel", 32.1, 34.8),
    "sa": ("Saudi Arabia", 24.7, 46.7),
    "ae": ("UAE", 25.2, 55.3),
    "tw": ("Taiwan", 25.0, 121.6),
    "hk": ("Hong Kong", 22.3, 114.2),
    "sg": ("Singapore", 1.4, 103.8),
    "my": ("Malaysia", 3.1, 101.7),
    "th": ("Thailand", 13.8, 100.5),
    "ph": ("Philippines", 14.6, 121.0),
    "nz": ("New Zealand", -36.8, 174.8),
    "by": ("Belarus", 53.9, 27.6),
    "kz": ("Kazakhstan", 51.2, 71.4),
    "cn": ("China", 39.9, 116.4),
    "eu": ("Europe", 50.8, 4.4),
}

#: Countries generic-TLD (com/net/org/...) domains are spread over, with
#: relative weights approximating the global mail-hosting footprint.
GENERIC_TLD_COUNTRY_MIX: Dict[str, float] = {
    "United States": 0.34,
    "Germany": 0.09,
    "France": 0.05,
    "United Kingdom": 0.05,
    "Netherlands": 0.04,
    "Russia": 0.05,
    "China": 0.04,
    "Japan": 0.03,
    "India": 0.04,
    "Brazil": 0.03,
    "Canada": 0.03,
    "Australia": 0.02,
    "Poland": 0.03,
    "Czechia": 0.02,
    "Turkey": 0.02,
    "South Korea": 0.02,
    "Italy": 0.02,
    "Spain": 0.02,
    "Iran": 0.02,
    "Ukraine": 0.02,
    "South Africa": 0.01,
    "Taiwan": 0.01,
}

_COUNTRY_COORDS: Dict[str, Tuple[float, float]] = {
    country: (lat, lon) for _, (country, lat, lon) in _CC.items()
}
_COUNTRY_COORDS["United States"] = (38.9, -77.0)


class TldModel:
    """Lookup helpers over the TLD tables."""

    @staticmethod
    def country_for(tld: str) -> Optional[str]:
        entry = _CC.get(tld.lower())
        return entry[0] if entry else None

    @staticmethod
    def coords_for_country(country: str) -> Tuple[float, float]:
        return _COUNTRY_COORDS.get(country, (38.9, -77.0))


#: Paper Table 5 — per-TLD probability that an initially vulnerable domain
#: is patched by the end of the four-month window.  ``None`` key is the
#: default (com's 15% serves as the global reference benchmark).
TLD_PATCH_RATES: Dict[Optional[str], float] = {
    "za": 0.79,
    "gr": 0.75,
    "de": 0.46,
    "eu": 0.29,
    "tr": 0.28,
    "com": 0.15,
    "ir": 0.03,
    "il": 0.03,
    "by": 0.02,
    "ru": 0.02,
    "tw": 0.00,
    None: 0.15,
}

#: TLDs whose operators patched almost entirely *before* public disclosure
#: (the paper's .za observation: 98% patched in the October/November
#: window, unprompted by the private notification).
PROACTIVE_PATCH_TLDS: Dict[str, float] = {"za": 0.98, "gr": 0.60}
