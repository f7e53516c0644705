"""CDC deltas and version-stamped changelogs for dynamic tables.

A :class:`Delta` is one z-set entry — a record with a signed weight
(+n inserts, −n deletes), the carrier of incremental view maintenance
(Elghandour et al.'s delta-driven refresh).  A :class:`Changelog` is the
append-only log of a table's committed deltas, stamped with the refresh
version (an integer instant) at which they took effect; downstream views
pull exactly the slice ``(their version, target version]`` to catch up.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from repro.core.errors import StateError
from repro.core.records import Record
from repro.core.relation import Bag


@dataclass(frozen=True)
class Delta:
    """One signed change: ``weight`` copies of ``row`` added (or removed)."""

    row: Record
    weight: int

    def __post_init__(self) -> None:
        if self.weight == 0:
            raise StateError("a delta must have non-zero weight")


def net(deltas: Iterable[Delta]) -> list[Delta]:
    """Collapse deltas row-wise: weights sum, zero-weight rows vanish.

    Keeps changelogs tight — an affected-keys refresh emits a retract +
    insert per touched group, and when the pair cancels (the group's
    aggregate landed back on the same value) nothing is logged.
    """
    weights: dict[Record, int] = {}
    for delta in deltas:
        weights[delta.row] = weights.get(delta.row, 0) + delta.weight
    return [Delta(row, weight) for row, weight in weights.items() if weight]


def apply_deltas(bag: Bag, deltas: Iterable[Delta]) -> None:
    """Apply deltas to a materialised bag in place.

    Raises :class:`StateError` when a retract exceeds the bag's
    multiplicity — that is a torn changelog, never a valid refresh.
    """
    for delta in deltas:
        if delta.weight > 0:
            bag.add(delta.row, delta.weight)
        else:
            removed = bag.discard(delta.row, -delta.weight)
            if removed != -delta.weight:
                raise StateError(
                    f"retracting {-delta.weight} × {delta.row!r} but only "
                    f"{removed} present")


class Changelog:
    """An append-only, version-stamped log of committed deltas.

    Reclaimed history lives in the *head*: one netted ``row -> weight``
    map that stands for a single batch stamped at version 0.  Live
    entries stay as ``(version, batch)`` pairs in version order, so
    compaction folds only the entries it reclaims and a slice is found
    by bisection — both cost what they touch, not what the log holds.
    """

    def __init__(self) -> None:
        self._head: dict[Record, int] = {}
        self._versions: list[int] = []
        self._batches: list[tuple[Delta, ...]] = []

    def append(self, version: int, deltas: Iterable[Delta]) -> None:
        """Commit ``deltas`` at ``version`` (versions never decrease)."""
        batch = tuple(deltas)
        if not batch:
            return
        latest = self.latest_version()
        if latest is not None and version < latest:
            raise StateError(
                f"changelog versions must not decrease: {version} after "
                f"{latest}")
        self._versions.append(version)
        self._batches.append(batch)

    def between(self, after: int, upto: int) -> list[Delta]:
        """All deltas committed at versions in ``(after, upto]``."""
        out = self._head_batch() if after < 0 <= upto else []
        lo = bisect_right(self._versions, after)
        for batch in self._batches[lo:bisect_right(self._versions, upto)]:
            out.extend(batch)
        return out

    def latest_version(self) -> int | None:
        if self._versions:
            return self._versions[-1]
        return 0 if self._head else None

    def entries(self) -> Iterator[tuple[int, tuple[Delta, ...]]]:
        head = [(0, tuple(self._head_batch()))] if self._head else []
        return chain(head, zip(self._versions, self._batches))

    def __len__(self) -> int:
        return len(self._versions) + bool(self._head)

    def gc(self, below: int) -> int:
        """Compact entries committed at versions ``<= below`` into the
        netted version-0 head; returns entries reclaimed.

        Safe when every attached consumer has consumed past ``below``: a
        consumer at version ``v >= below`` only ever pulls ``(v, ...]``,
        which excludes version 0.  A consumer attached *later* starts at
        version -1 and pulls ``(-1, clock]`` — the head nets all reclaimed
        history (including any version-0 priming batch), so full replay
        still reconstructs the exact current contents.  That is why
        reclaimed history is netted and kept at version 0 rather than
        dropped.  Only the reclaimed entries are read: the cost is
        O(reclaimed deltas), whatever the head holds.
        """
        cut = bisect_right(self._versions, below)
        had_head = bool(self._head)
        if cut + had_head <= 1:
            return 0
        head = self._head
        for batch in self._batches[:cut]:
            for delta in batch:
                weight = head.get(delta.row, 0) + delta.weight
                if weight:
                    head[delta.row] = weight
                else:
                    del head[delta.row]
        del self._versions[:cut]
        del self._batches[:cut]
        return cut + had_head - bool(head)

    def _head_batch(self) -> list[Delta]:
        return [Delta(row, weight) for row, weight in self._head.items()]

    # -- checkpointing --------------------------------------------------------

    def snapshot(self) -> dict:
        entries = list(self.entries())
        return {"versions": [version for version, _ in entries],
                "batches": [batch for _, batch in entries]}

    def restore(self, state: dict) -> None:
        # A version-0 batch restores as a live entry; the next gc folds
        # it back into the head.
        self._head = {}
        self._versions = list(state["versions"])
        self._batches = list(state["batches"])
