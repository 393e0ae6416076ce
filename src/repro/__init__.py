"""spfail-repro: a reproduction of "SPFail: Discovering, Measuring, and
Remediating Vulnerabilities in Email Sender Validation" (IMC 2022).

The package layers, bottom-up:

- :mod:`repro.dns` -- DNS substrate (names, records, messages, zones,
  authoritative servers, resolvers, the measurement query log);
- :mod:`repro.spf` -- RFC 7208 engine with pluggable macro-expansion
  behaviors;
- :mod:`repro.libspf2` -- byte-level port of the vulnerable libSPF2
  expansion code (CVE-2021-33912/33913) over a simulated C heap;
- :mod:`repro.smtp` -- MTA state machines, probe client, in-memory network;
- :mod:`repro.internet` -- the synthetic Internet: domain populations,
  hosting fleet, geography, patch behavior, package managers;
- :mod:`repro.notification` -- private-disclosure email machinery;
- :mod:`repro.core` -- the paper's contribution: benign remote detection
  and the longitudinal measurement campaign;
- :mod:`repro.analysis` -- builders for every table and figure;
- :mod:`repro.simulation` -- one-call assembly of the whole experiment;
- :mod:`repro.api` -- the frozen :class:`~repro.api.RunConfig` describing
  one run (serializable, content-hashed);
- :mod:`repro.store` -- crash-safe checkpointing and deterministic resume
  of longitudinal campaigns.

Quickstart::

    from repro import RunConfig, Simulation
    sim = Simulation.build(config=RunConfig(scale=0.01))
    result = sim.run()
    print(len(result.initial.vulnerable_ips()), "vulnerable addresses")
"""

from .api import RunConfig
from .simulation import Simulation

__version__ = "1.0.0"

__all__ = ["RunConfig", "Simulation", "__version__"]
