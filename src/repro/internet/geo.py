"""Synthetic IP geolocation (the paper used the DbIP database).

Each hosting unit is placed in a country — its ccTLD's country when it
has one, otherwise a draw from a global hosting mix — and every one of
its addresses gets coordinates jittered around that country's reference
point.  Figure 3's choropleth buckets aggregate those coordinates into
geographic cells.

Like the rest of the world model, geolocation is lazy: a unit's country
is a function of ``(seed, unit_id)`` and an address's jitter a function
of ``(seed, ip)``, so :class:`FleetGeoDatabase` answers any lookup on
first touch and caches it — holding the database costs O(located), not
O(world).  The dict-backed :class:`GeoDatabase` remains for hand-built
scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from .mta_fleet import MtaFleet
from .rng import SeededRng
from .tld import TldModel


@dataclass(frozen=True)
class GeoLocation:
    """Where one IP address sits."""

    latitude: float
    longitude: float
    country: str

    def bucket(self, cell_degrees: float = 10.0) -> Tuple[int, int]:
        """The geographic cell containing this location."""
        return (
            int(self.latitude // cell_degrees),
            int(self.longitude // cell_degrees),
        )


class GeoDatabase:
    """IP address → location, explicitly populated."""

    def __init__(self) -> None:
        self._by_ip: Dict[str, GeoLocation] = {}

    def locate(self, ip: str) -> Optional[GeoLocation]:
        return self._by_ip.get(ip)

    def __len__(self) -> int:
        return len(self._by_ip)

    def add(self, ip: str, location: GeoLocation) -> None:
        self._by_ip[ip] = location

    def bucket_counts(
        self, ips: Iterable[str], *, cell_degrees: float = 10.0
    ) -> Dict[Tuple[int, int], int]:
        """Frequency of addresses per geographic cell (Figure 3 data)."""
        counts: Dict[Tuple[int, int], int] = {}
        for ip in ips:
            location = self.locate(ip)
            if location is None:
                continue
            key = location.bucket(cell_degrees)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def country_counts(self, ips: Iterable[str]) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for ip in ips:
            location = self.locate(ip)
            if location is None:
                continue
            counts[location.country] = counts.get(location.country, 0) + 1
        return counts


class FleetGeoDatabase(GeoDatabase):
    """Locations derived lazily from the fleet's hosting units.

    The country comes from the owning unit (pinned at materialization by
    :meth:`MtaFleet.bind_geography`); coordinates are the country's
    reference point plus a per-address jitter fork, so any lookup —
    including one after a snapshot restore —
    regenerates the identical location.
    """

    def __init__(self, fleet: MtaFleet, seed: int) -> None:
        super().__init__()
        self._fleet = fleet
        self._root = SeededRng(seed).fork("geo")

    def locate(self, ip: str) -> Optional[GeoLocation]:
        cached = self._by_ip.get(ip)
        if cached is not None:
            return cached
        unit = self._fleet.unit_by_ip.get(ip)
        if unit is None:
            return None
        base_lat, base_lon = TldModel.coords_for_country(unit.country)
        rng = self._root.fork(f"ip-{ip}")
        location = GeoLocation(
            latitude=max(-85.0, min(85.0, base_lat + rng.uniform(-4.0, 4.0))),
            longitude=max(-179.0, min(179.0, base_lon + rng.uniform(-4.0, 4.0))),
            country=unit.country,
        )
        self._by_ip[ip] = location
        return location

    def __len__(self) -> int:
        # The addressable universe, not the touched subset: reserved
        # slots bound every address the fleet can ever answer for.
        return self._fleet.total_slot_count()


def assign_geography(fleet: MtaFleet, *, seed: int = 0) -> FleetGeoDatabase:
    """Place every hosting unit (and its IPs) on the map — lazily.

    Binds the seed into the fleet so each unit's ``country`` is set at
    materialization (the patching model reads it), and returns a
    database that resolves addresses on first touch.
    """
    fleet.bind_geography(seed)
    return FleetGeoDatabase(fleet, seed)
