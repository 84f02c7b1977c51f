"""Staged ATPG campaigns: streaming fault universe, sharded
generation, global fault dropping, checkpoint/resume.

Public API:

* :func:`execute_campaign` with :class:`repro.api.Options` — the
  managed pipeline (the serial engine is an unbounded-window instance
  of it; :meth:`repro.api.AtpgSession.campaign` is its front door),
* :class:`FaultUniverse` — lazily streamed, filtered, budget-capped
  fault sources,
* :class:`CampaignReport` / :class:`CampaignStats` — results and the
  durable progress record behind checkpoint/resume,
* :class:`DropBus` — cross-shard collateral dropping and incremental
  compaction.
"""

from .bus import DropBus
from .report import DEFAULT_SHARDS, CampaignReport, CampaignStats
from .runner import CampaignControl, execute_campaign
from .scheduler import RoundResult, SerialExecutor
from .universe import FaultUniverse

__all__ = [
    "CampaignControl",
    "execute_campaign",
    "CampaignReport",
    "CampaignStats",
    "DEFAULT_SHARDS",
    "DropBus",
    "FaultUniverse",
    "RoundResult",
    "SerialExecutor",
]
