"""The RunConfig build API.

``Simulation.build(config=RunConfig(...))`` is the only signature; the
old ``scale=``/``seed=``/``executor=`` keywords are gone, so passing
them is a plain ``TypeError``.
"""

from __future__ import annotations

import warnings

import pytest

from repro.api import RunConfig
from repro.simulation import Simulation

SCALE = 0.002
SEED = 5


class TestBuildShims:
    """The removed keyword shims are refused outright."""

    def test_legacy_keywords_raise_type_error(self):
        with pytest.raises(TypeError):
            Simulation.build(scale=0.01)

    def test_config_build_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sim = Simulation.build(config=RunConfig(scale=SCALE, seed=SEED))
        assert sim.config.scale == SCALE

    def test_config_plus_legacy_keywords_rejected(self):
        with pytest.raises(TypeError):
            Simulation.build(config=RunConfig(scale=SCALE), seed=SEED)

    def test_build_records_its_config(self):
        config = RunConfig(scale=SCALE, seed=SEED, trace=True)
        sim = Simulation.build(config=config)
        assert sim.config is config
