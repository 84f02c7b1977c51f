"""Staged ATPG campaigns: streaming fault universe, sharded
generation, global fault dropping, checkpoint/resume.

Public API:

* :func:`run_campaign` with :class:`CampaignOptions` — the managed
  pipeline (the serial engine is an unbounded-window instance of it),
* :class:`FaultUniverse` — lazily streamed, filtered, budget-capped
  fault sources,
* :class:`CampaignReport` / :class:`CampaignStats` — results and the
  durable progress record behind checkpoint/resume,
* :class:`DropBus` — cross-shard collateral dropping and incremental
  compaction.
"""

from .bus import DropBus
from .report import (
    DEFAULT_SHARDS,
    CampaignOptions,
    CampaignReport,
    CampaignStats,
)
from .runner import CampaignControl, execute_campaign, run_campaign
from .scheduler import RoundResult, SerialExecutor, ShardResult
from .universe import FaultUniverse

__all__ = [
    "CampaignControl",
    "CampaignOptions",
    "execute_campaign",
    "CampaignReport",
    "CampaignStats",
    "DEFAULT_SHARDS",
    "DropBus",
    "FaultUniverse",
    "RoundResult",
    "SerialExecutor",
    "ShardResult",
    "run_campaign",
]
