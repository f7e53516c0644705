"""The four architectural components of Figure 3: Stream, Store, Scratch,
Throw.

The paper describes the canonical DSMS layout: *streams* are both input and
main output; the *Store* aligns with CQL's time-varying relation
abstraction and persists query results; the *Scratch* is working memory for
intermediate operator state; the *Throw* is the logical recycle bin where
expired tuples go.  This module gives each a concrete, inspectable
realisation wired into the DSMS engine.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Protocol

from repro.core.errors import StateError
from repro.core.relation import Bag, TimeVaryingRelation
from repro.core.time import Timestamp

#: Identifies the Store whose histories a snapshot's marks index.
_HISTORY_OWNERS = itertools.count(1)


class Store:
    """Persistent result storage: one time-varying relation per query.

    The Store is what a client reads when it asks a DSMS for "the current
    answer" of a registered relation-producing query.  Bags in the
    history are never mutated once written, so the current answer shares
    the newest one.
    """

    def __init__(self) -> None:
        self._relations: dict[str, TimeVaryingRelation] = {}
        self._current: dict[str, Bag] = {}
        self.writes = 0
        self._history_id = next(_HISTORY_OWNERS)

    def register(self, name: str) -> None:
        self._relations[name] = TimeVaryingRelation()
        self._current[name] = Bag()

    def write(self, name: str, state: Bag, t: Timestamp) -> None:
        """Persist a query's new current state at instant ``t``."""
        relation = self._relations[name]
        stored = state.copy()
        if relation._times and relation._times[-1] == t:
            # Same-instant refinement: keep the latest state for t.
            relation._times.pop()
            relation._states.pop()
        relation.set_at(t, stored, coalesce=False)
        self._current[name] = stored
        self.writes += 1

    def current(self, name: str) -> Bag:
        """The stored answer right now."""
        return self._current[name].copy()

    def snapshot(self) -> dict[str, Any]:
        """History marks for checkpointing: each stored relation's length
        and its newest ``(t, bag)`` entry, which a same-instant write
        replaces in place."""
        relations: dict[str, Any] = {}
        for name, relation in self._relations.items():
            relations[name] = {
                "length": len(relation),
                "tail": ((relation._times[-1], relation._states[-1])
                         if len(relation) else None),
            }
        return {"owner": self._history_id, "relations": relations,
                "writes": self.writes}

    def restore(self, payload: dict[str, Any]) -> None:
        """Roll the Store back to a snapshot, in place.

        A snapshot of this Store truncates each history back to its mark
        and puts the tail entry back.  A snapshot of another Store
        restores the current answers only: each history then starts at
        the restore point with that answer.
        """
        own = payload["owner"] == self._history_id
        for name, entry in payload["relations"].items():
            if name not in self._relations:
                self.register(name)
            relation = self._relations[name]
            tail = entry["tail"]
            if own:
                if entry["length"] > len(relation):
                    raise StateError(
                        f"snapshot is newer than the stored history of "
                        f"{name!r}: it was already rolled back past it")
                del relation._times[entry["length"]:]
                del relation._states[entry["length"]:]
                if tail is not None:
                    relation._times[-1], relation._states[-1] = tail
            else:
                relation._times = [tail[0]] if tail is not None else []
                relation._states = [tail[1]] if tail is not None else []
            self._current[name] = tail[1] if tail is not None else Bag()
        self.writes = payload["writes"]

    def history(self, name: str) -> TimeVaryingRelation:
        """The full change-log of the stored answer."""
        return self._relations[name]

    def names(self) -> list[str]:
        return sorted(self._relations)


class StateHolder(Protocol):
    """Anything whose memory footprint the Scratch can account for."""

    @property
    def state_size(self) -> int: ...


class Scratch:
    """Working-memory accounting for intermediate operator state.

    Operators (window buffers, join hash tables, aggregate groups) register
    here; the Scratch reports total and peak occupancy, which the Figure 3
    benchmark sweeps against window size.
    """

    def __init__(self) -> None:
        self._holders: list[tuple[str, StateHolder]] = []
        self.peak = 0

    def register(self, label: str, holder: StateHolder) -> None:
        self._holders.append((label, holder))

    def unregister(self, prefix: str) -> int:
        """Drop registrations whose label is ``prefix`` or starts with
        ``prefix`` + a separator; returns how many were dropped.

        Used when a query's physical operators are replaced wholesale
        (live rescale): the old replicas' holders would otherwise keep
        their dead state in the occupancy number forever.
        """
        def matches(label: str) -> bool:
            return label == prefix or label.startswith(prefix + "/") \
                or label.startswith(prefix + "!")

        before = len(self._holders)
        self._holders = [(label, holder) for label, holder in self._holders
                         if not matches(label)]
        return before - len(self._holders)

    def occupancy(self) -> int:
        """Total tuples currently held in registered operator state."""
        total = sum(holder.state_size for _, holder in self._holders)
        if total > self.peak:
            self.peak = total
        return total

    def breakdown(self) -> dict[str, int]:
        """Occupancy per registered holder label."""
        out: dict[str, int] = {}
        for label, holder in self._holders:
            out[label] = out.get(label, 0) + holder.state_size
        return out

    def __len__(self) -> int:
        return len(self._holders)


class Throw:
    """The logical recycle bin: every expired/discarded tuple passes here.

    Keeps counts (and optionally the tuples themselves, for inspection)
    so tests can assert that windows really release state.
    """

    def __init__(self, keep_tuples: bool = False) -> None:
        self._keep = keep_tuples
        self._tuples: list[tuple[Any, Timestamp]] = []
        self.discarded = 0

    def discard(self, value: Any, t: Timestamp) -> None:
        self.discarded += 1
        if self._keep:
            self._tuples.append((value, t))

    def tuples(self) -> Iterator[tuple[Any, Timestamp]]:
        if not self._keep:
            raise ValueError("Throw was created with keep_tuples=False")
        return iter(self._tuples)

    def __repr__(self) -> str:
        return f"Throw(discarded={self.discarded})"
