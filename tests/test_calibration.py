"""Unit tests for the calibration probes."""

import pytest

from repro.caches.block import MESI
from repro.harness.calibration import (PAPER_SHARED_ENTRY_FRACTION,
                                       measure_shared_fraction,
                                       shared_entry_fraction)
from repro.common.config import DirectoryConfig
from repro.harness.parallel import telemetry_since, telemetry_snapshot
from repro.harness.system_builder import build_system
from repro.workloads import make_multithreaded
from repro.workloads.synthetic import AppProfile

from tests.conftest import drive, tiny_config


class TestSharedEntryFraction:
    def test_empty_directory(self):
        system = build_system(tiny_config(
            directory=DirectoryConfig(unbounded=True)))
        assert shared_entry_fraction(system) == 0.0

    def test_counts_s_entries(self):
        system = build_system(tiny_config(
            directory=DirectoryConfig(unbounded=True)))
        drive(system, [(0, "R", 1),              # E entry
                       (0, "I", 2),              # S entry (code)
                       (0, "R", 3), (1, "R", 3)])  # S entry (shared)
        assert shared_entry_fraction(system) == pytest.approx(2 / 3)

    def test_measure_private_app_is_low(self):
        config = tiny_config()
        profile = AppProfile("priv", shared_fraction=0.0,
                             code_fraction=0.0)
        workload = make_multithreaded(profile, config, 600, seed=2)
        before = telemetry_snapshot()
        assert measure_shared_fraction(config, workload) < 0.05
        # The probe runs outside run_many but is counted like its runs.
        delta = telemetry_since(before)
        assert delta["runs"] == 1
        assert delta["accesses"] == workload.total_accesses

    def test_measure_shared_app_is_high(self):
        config = tiny_config()
        profile = AppProfile("shr", shared_fraction=0.6,
                             ws_shared_x_llc=0.5,
                             shared_write_fraction=0.0,
                             code_fraction=0.2)
        workload = make_multithreaded(profile, config, 600, seed=2)
        assert measure_shared_fraction(config, workload) > 0.15

    def test_paper_anchor_table(self):
        assert PAPER_SHARED_ENTRY_FRACTION["SPLASH2X"] == 0.19
        assert PAPER_SHARED_ENTRY_FRACTION["SPECOMP"] == 0.005
