"""Items and their outcomes, shared by every workload."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple


@dataclass(frozen=True)
class Outcome:
    """Whether an item met its expected answer, and the verdicts it saw."""

    ok: bool
    verdicts: Tuple[str, ...] = ()
    detail: str = ""


@dataclass(frozen=True)
class Item:
    """One unit of closed-loop work; run() returns its Outcome."""

    id: str
    run: Callable[[], Outcome]
