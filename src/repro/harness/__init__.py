"""Experiment harness: system construction, trace running, parallel
fan-out, result caching, and reporting."""

from repro.harness.system_builder import build_system
from repro.harness.runner import RunResult, run_workload
from repro.harness.parallel import run_many
from repro.harness.campaign import (CampaignError, CampaignJournal,
                                    CampaignPolicy, RunFailure,
                                    RunSuccess, campaign_map)
from repro.harness.result_cache import (ResultCache, run_key,
                                        session_cache)
from repro.harness.reporting import Row, Table, geomean
from repro.harness.energy import EnergyModel, estimate_energy

__all__ = [
    "CampaignError",
    "CampaignJournal",
    "CampaignPolicy",
    "EnergyModel",
    "ResultCache",
    "Row",
    "RunFailure",
    "RunResult",
    "RunSuccess",
    "Table",
    "build_system",
    "campaign_map",
    "estimate_energy",
    "geomean",
    "run_key",
    "run_many",
    "run_workload",
    "session_cache",
]
