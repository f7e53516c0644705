"""Seeded input generators for the benchmark workloads.

Plain Python over :class:`random.Random`; nothing here imports the system
under test, so the engines only ever receive the rows generated below.
Every generator is a pure function of ``(seed, workload, episode)``: the
same seed gives the same inputs in any process, which lets the checker
regenerate an episode's inputs instead of keeping them in memory while
the timed phase runs.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass


def rng_for(seed: int, workload: str, episode: int) -> random.Random:
    """The generator stream of one episode of one workload."""
    return random.Random(f"{workload}/{seed}/{episode}")


# -- cql-join-agg -----------------------------------------------------------

#: Person rows; every observation id joins FANOUT of them, so a row
#: updates FANOUT groups.
PERSONS = 4000
FANOUT = 2
#: Distinct ``grp`` values: a 200-instant window of 10 rows per instant
#: feeds 4000 group updates, which leave about 980 groups non-empty, so
#: the maintained relation holds roughly a thousand rows.
GROUPS = 1000
JOIN_AGG_RANGE = 200
JOIN_AGG_INSTANTS = 600
JOIN_AGG_ROWS = 10


@dataclass(frozen=True)
class JoinAggInput:
    persons: list[dict]
    #: ``instants[i]`` holds the Obs rows arriving at timestamp ``i + 1``.
    instants: list[list[dict]]


def join_agg(rng: random.Random) -> JoinAggInput:
    persons = [{"id": i % (PERSONS // FANOUT), "grp": rng.randrange(GROUPS)}
               for i in range(PERSONS)]
    instants = [[{"id": rng.randrange(PERSONS // FANOUT),
                  "temp": rng.randrange(1000)}
                 for _ in range(JOIN_AGG_ROWS)]
                for _ in range(JOIN_AGG_INSTANTS)]
    return JoinAggInput(persons, instants)


# -- dsms-shared and dsms-recovery ------------------------------------------

@dataclass(frozen=True)
class ObsInput:
    #: ``instants[i]`` holds the Obs rows arriving at timestamp ``i + 1``.
    instants: list[list[dict]]


def observations(rng: random.Random, instants: int, rows: int,
                 ids: int = 20, rooms: int = 5) -> ObsInput:
    """Room observations over a small key space."""
    return ObsInput([[{"id": rng.randrange(ids),
                       "room": f"room{rng.randrange(rooms)}",
                       "temp": rng.randrange(40)}
                      for _ in range(rows)]
                     for _ in range(instants)])


# -- views-cdc --------------------------------------------------------------

BASE_ROWS = 2000
KEYS = 200
#: 90% of the changes land on this many keys (5% of the key space).
HOT_KEYS = 10
HOT_SHARE = 0.9
VIEWS_ROUNDS = 250
#: Rows changed per round: this many deletes plus as many inserts.
CHANGES = 5
VALUES = 1000


@dataclass(frozen=True)
class CdcRound:
    deletes: list[tuple[int, int]]
    inserts: list[tuple[int, int]]
    #: A late commit goes through ``apply()`` with the default version.
    late: bool = False


@dataclass(frozen=True)
class CdcInput:
    base: list[tuple[int, int]]
    rounds: list[CdcRound]

    def base_after(self) -> list[Counter]:
        """The base table's contents after each round, as ``(k, v)``
        counts — the truth the views are checked against."""
        contents = Counter(self.base)
        out = []
        for round_ in self.rounds:
            contents.subtract(round_.deletes)
            contents.update(round_.inserts)
            out.append(+contents)
        return out


def _skewed_key(rng: random.Random) -> int:
    if rng.random() < HOT_SHARE:
        return rng.randrange(HOT_KEYS)
    return rng.randrange(KEYS)


def cdc(rng: random.Random, rounds: int = VIEWS_ROUNDS,
        late_share: float = 0.0) -> CdcInput:
    """A base table plus skewed delete/insert rounds that keep its size.

    Deletes always name a row present at that point, so every commit is
    valid.  With ``late_share`` > 0 that share of rounds are late,
    insert-only commits; late rows are never deleted afterwards.
    """
    base = [(rng.randrange(KEYS), rng.randrange(VALUES))
            for _ in range(BASE_ROWS)]
    # Deletable rows per key; late rows are never added here.
    live: dict[int, list[int]] = {}
    for k, v in base:
        live.setdefault(k, []).append(v)
    script = []
    for _ in range(rounds):
        inserts = [(_skewed_key(rng), rng.randrange(VALUES))
                   for _ in range(CHANGES)]
        if rng.random() < late_share:
            script.append(CdcRound([], inserts, late=True))
            continue
        deletes = []
        for _ in range(CHANGES):
            key = _skewed_key(rng)
            if not live.get(key):
                key = rng.choice([k for k, vs in live.items() if vs])
            values = live[key]
            deletes.append((key, values.pop(rng.randrange(len(values)))))
        for k, v in inserts:
            live.setdefault(k, []).append(v)
        script.append(CdcRound(deletes, inserts))
    return CdcInput(base, script)
