"""Query optimizer: rewrite rules, statistics, join ordering and physical planning."""

from repro.core.optimizer.planner import Planner

__all__ = ["Planner"]
