"""Analysis builders — one module per paper table/figure.

Every experiment in the paper's evaluation has a ``build_*`` function
returning structured rows and a ``render_*`` function producing the
paper's layout as text; :data:`ARTIFACTS` pairs them per artifact name,
and :class:`BuiltArtifacts` builds each artifact of one run once, for
the report to render and score:

========  =====================================================  =============
artifact  what the paper reports                                 module
========  =====================================================  =============
Table 1   overlap between domain sets                            ``table1``
Table 2   most common TLDs per set                               ``table2``
Table 3   NoMsg/BlankMsg outcomes by domain set                  ``table3``
Table 4   initial SPF results breakdown                          ``table4``
Table 5   best/worst TLD patch rates                             ``table5``
Table 6   package-manager patch timeline                         ``table6``
Table 7   SPF macro-expansion behaviors by IP                    ``table7``
Figure 2  final patched/vulnerable/unknown distribution          ``figure2``
Figure 3  geographic distribution of vulnerable/patched IPs      ``figure3``
Figure 4  vulnerability and patching by site ranking             ``figure4``
Figure 5  conclusive results over time                           ``figure5``
Figure 6  vulnerability rates, first window                      ``figure6``
Figure 7  vulnerability rates, full period                       ``figure7``
Figure 8  Alexa Top 1000 conclusive results over time            ``figure8``
§7.7      private-notification funnel                            ``notification_funnel``
========  =====================================================  =============
"""

from dataclasses import dataclass
from typing import Callable, Dict

from ..simulation import Simulation
from .table1 import build_table1, render_table1
from .table2 import build_table2, render_table2
from .table3 import build_table3, render_table3
from .table4 import build_table4, render_table4
from .table5 import build_table5, render_table5
from .table6 import build_table6, render_table6
from .table7 import build_table7, render_table7
from .figure2 import build_figure2, render_figure2
from .figure3 import build_figure3, render_figure3
from .figure4 import build_figure4, render_figure4
from .figure5 import build_figure5, render_figure5
from .figure6 import build_figure6, render_figure6
from .figure7 import build_figure7, render_figure7
from .figure8 import build_figure8, render_figure8
from .notification_funnel import build_notification_funnel, render_notification_funnel


@dataclass(frozen=True)
class Artifact:
    """One regenerated artifact: its builder over a completed simulation
    and the renderer of what the builder returns."""

    build: Callable[[Simulation], object]
    render: Callable[[object], str]

    def __call__(self, sim: Simulation) -> str:
        """Build and render in one step (what ``--artifact NAME`` prints)."""
        return self.render(self.build(sim))


#: Every regenerated artifact, in report order.  The CLI's ``--artifact``
#: and the report's "Regenerated artifacts" section both read this one
#: mapping; the report also scores the paper targets from what it built.
ARTIFACTS: Dict[str, Artifact] = {
    "table1": Artifact(lambda sim: build_table1(sim.population), render_table1),
    "table2": Artifact(lambda sim: build_table2(sim.population), render_table2),
    "table3": Artifact(
        lambda sim: build_table3(sim.population, sim.run().initial), render_table3
    ),
    "table4": Artifact(
        lambda sim: build_table4(sim.population, sim.run().initial), render_table4
    ),
    "table5": Artifact(lambda sim: build_table5(sim), render_table5),
    "table6": Artifact(lambda sim: build_table6(), render_table6),
    "table7": Artifact(lambda sim: build_table7(sim.run().initial), render_table7),
    "figure2": Artifact(lambda sim: build_figure2(sim), render_figure2),
    "figure3": Artifact(lambda sim: build_figure3(sim), render_figure3),
    "figure4": Artifact(lambda sim: build_figure4(sim), render_figure4),
    "figure5": Artifact(lambda sim: build_figure5(sim), render_figure5),
    "figure6": Artifact(lambda sim: build_figure6(sim), render_figure6),
    "figure7": Artifact(lambda sim: build_figure7(sim), render_figure7),
    "figure8": Artifact(lambda sim: build_figure8(sim), render_figure8),
    "notification": Artifact(
        lambda sim: build_notification_funnel(sim), render_notification_funnel
    ),
}


class BuiltArtifacts:
    """The artifacts of one completed run, each built on first use and kept.

    ``built[name]`` is what ``ARTIFACTS[name].build`` returned; ``sim``
    is the run they were built from.
    """

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self._built: Dict[str, object] = {}

    def __getitem__(self, name: str) -> object:
        if name not in self._built:
            self._built[name] = ARTIFACTS[name].build(self.sim)
        return self._built[name]


#: The artifact names, in report order.
ARTIFACT_NAMES = tuple(ARTIFACTS)

__all__ = [
    "ARTIFACTS", "ARTIFACT_NAMES", "Artifact", "BuiltArtifacts",
    "build_table1", "render_table1",
    "build_table2", "render_table2",
    "build_table3", "render_table3",
    "build_table4", "render_table4",
    "build_table5", "render_table5",
    "build_table6", "render_table6",
    "build_table7", "render_table7",
    "build_figure2", "render_figure2",
    "build_figure3", "render_figure3",
    "build_figure4", "render_figure4",
    "build_figure5", "render_figure5",
    "build_figure6", "render_figure6",
    "build_figure7", "render_figure7",
    "build_figure8", "render_figure8",
    "build_notification_funnel", "render_notification_funnel",
]
