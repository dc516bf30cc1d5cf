"""Seeded job lists for the four workloads (stdlib only).

Each workload's list is a pure function of ``(workload, seed)``: the
same seed gives byte-identical program texts, fact texts and scheduler
seeds in any process (``random.Random`` seeded with a string hashes it
with SHA-512, not with the salted builtin ``hash``).

Job sizes are spread continuously: job *i* of *n* draws its size from
the stratum ``[i/n, (i+1)/n)``, and the shape, program, mode and option
of each job are tied to its stratum, so every seed covers the same
mix of sizes and no median falls in a gap between size classes.  The
list is shuffled last; the seed varies only the details of each input.
Scheduler seeds are the job's stratum index, the same for every seed.
"""

from __future__ import annotations

import random

import oracles

WINMOVE = "Win(x) :- Move(x, y), not Win(y)."

#: The protocol programs, by name: (text, ILOG?).
PROGRAMS = {
    "tc": ("T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).", False),
    "absence": ("O(x, y) :- E(x, y), not Mark(y).", False),
    "cotc": (
        "T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).\n"
        "O(x,y) :- Adom(x), Adom(y), not T(x,y).",
        False,
    ),
    "barrier": (
        "T(x, y, z) :- E(x, y), E(y, z), E(z, x), y != x, y != z, x != z.\n"
        "D(x1) :- T(x1, x2, x3), T(y1, y2, y3),\n"
        "         x1 != y1, x1 != y2, x1 != y3,\n"
        "         x2 != y1, x2 != y2, x2 != y3,\n"
        "         x3 != y1, x3 != y2, x3 != y3.\n"
        "O(x) :- Adom(x), not D(x).",
        False,
    ),
    "tc_with_witnesses": (
        "P(*, x, y) :- E(x, y). P(*, x, z) :- P(p, x, y), E(y, z).\n"
        "O(x, y) :- P(p, x, y).",
        True,
    ),
    "sp_wilog_tagged_pairs": (
        "Tag(*, x, y) :- E(x, y), not Mark(x). O(x, y) :- Tag(t, x, y).",
        True,
    ),
}

#: Per protocol-mix round of 24 slots: (program, mode, option).  Twelve
#: slots run in mode ``eval`` and twelve in ``cluster``; ILOG runs in
#: ``eval`` only (the service refuses it elsewhere).
MIX_SLOTS = (
    [("tc", "eval", None), ("tc", "cluster", None),
     ("tc", "cluster", "force_barrier"), ("tc", "cluster", "optimize"),
     ("tc", "eval", "optimize")]
    + [("absence", "eval", None), ("absence", "cluster", None),
       ("absence", "eval", "force_barrier"), ("absence", "cluster", "optimize"),
       ("absence", "cluster", None)]
    + [("cotc", "eval", None), ("cotc", "cluster", None),
       ("cotc", "cluster", "force_barrier"), ("cotc", "eval", "optimize"),
       ("cotc", "cluster", None)]
    + [("barrier", "eval", None), ("barrier", "cluster", None),
       ("barrier", "cluster", "force_barrier"), ("barrier", "eval", "optimize"),
       ("barrier", "cluster", None)]
    + [("tc_with_witnesses", "eval", None)] * 2
    + [("sp_wilog_tagged_pairs", "eval", None)] * 2
)

SESSION_PROGRAMS = ("tc", "absence", "cotc", "barrier")
TENANTS = tuple(f"tenant-{i}" for i in range(6))

JOBS_PER_ROUND = {
    "wfs-arenas": 96,
    "protocol-mix": 96,
    "service-sessions": 24,
    "winmove-procs": 12,
}

#: Arena shape of stratum i, by ``i % 6``: the shapes interleave along the
#: size range, so every seed pairs each shape with the same sizes.
SHAPES = ("multi", "single", "multi", "cycles", "multi", "multi")


def _strata(rng: random.Random, count: int) -> list[float]:
    """One size per stratum of [0, 1), stratum order (ascending)."""
    return [(i + rng.random()) / count for i in range(count)]


# ----------------------------------------------------------------------
# Win-move arenas
# ----------------------------------------------------------------------


def _dense_component(rng: random.Random, base: int, size: int, moves: set) -> None:
    for position in range(size):
        for _ in range(2 + position % 2):
            moves.add((base + position, base + rng.randrange(size)))


def _arena(rng: random.Random, shape: str, chain: int, dense: int,
           components: int) -> set:
    """Moves of one arena.

    ``multi``: a deep chain (alternating won/lost) plus *components*
    shallow dense components sharing *dense* positions; ``single``: the
    chain alone with forward shortcuts; ``cycles``: a multi arena plus a
    drawn cycle with a tail into it.
    """
    moves = {(p, p + 1) for p in range(chain - 1)}
    if shape == "single":
        for _ in range(chain // 4):
            source = rng.randrange(chain - 2)
            moves.add((source, rng.randrange(source + 2, chain)))
        return moves
    for index in range(1, components + 1):
        size = dense // components + (index <= dense % components)
        _dense_component(rng, index * 1000, size, moves)
    if shape == "cycles":
        base = (components + 2) * 1000
        length = 3 + chain % 5
        moves.update((base + p, base + (p + 1) % length) for p in range(length))
        moves.update(((base - 2, base - 1), (base - 1, base)))
    return moves


def _winmove_jobs(rng: random.Random, count: int, *, chain: tuple[int, int],
                  dense: tuple[int, int], components: tuple[int, int]) -> list[dict]:
    jobs = []
    for i, u in enumerate(_strata(rng, count)):
        shape = SHAPES[i % len(SHAPES)]
        parts = components[0] + (i // len(SHAPES)) % (components[1] - components[0] + 1)
        moves = _arena(
            rng,
            shape,
            chain[0] + round((chain[1] - chain[0]) * u),
            dense[0] + round((dense[1] - dense[0]) * u),
            parts,
        )
        jobs.append(
            {
                "program": WINMOVE,
                "facts": " ".join(f"Move({a},{b})." for a, b in sorted(moves)),
                "expected": oracles.winmove_expected(moves),
                "components": 1 if shape == "single" else 1 + parts + (shape == "cycles"),
                "size": u,
                "seed": i,
            }
        )
    rng.shuffle(jobs)
    return jobs


def wfs_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"wfs-arenas:{seed}")
    return _winmove_jobs(
        rng, JOBS_PER_ROUND["wfs-arenas"], chain=(6, 50), dense=(12, 40),
        components=(2, 5),
    )


def procs_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"winmove-procs:{seed}")
    return _winmove_jobs(
        rng, JOBS_PER_ROUND["winmove-procs"], chain=(4, 24), dense=(8, 16),
        components=(1, 2),
    )


# ----------------------------------------------------------------------
# Relational inputs for the protocol programs
# ----------------------------------------------------------------------


def _graph(rng: random.Random, nodes: int, triangles: bool) -> tuple[set, set]:
    """A path through the values in random order plus ``nodes // 2``
    forward chords, so the closure always has ``n(n-1)/2`` pairs and only
    the join work varies between seeds; optionally two planted
    vertex-disjoint triangles (so the barrier program has something to
    drop); a quarter of the values marked."""
    order = list(range(nodes))
    rng.shuffle(order)
    edges = set(zip(order, order[1:]))
    for _ in range(nodes // 2):
        i, j = sorted(rng.sample(range(nodes), 2))
        edges.add((order[i], order[j]))
    if triangles and nodes >= 6:
        a, b, c, d, e, f = rng.sample(range(nodes), 6)
        edges |= {(a, b), (b, c), (c, a), (d, e), (e, f), (f, d)}
    marks = set(rng.sample(range(nodes), nodes // 4))
    return edges, marks


def relational_job(program: str, edges: set, marks: set) -> dict:
    """Facts text and expected output of *program* on the given graph."""
    text, ilog = PROGRAMS[program]
    # ``Adom`` is derived by the program from the E facts (the paper's
    # active-domain convention), so the inputs carry no Adom facts.
    adom = {value for edge in edges for value in edge}
    parts = [f"E({a},{b})." for a, b in sorted(edges)]
    if program in ("absence", "sp_wilog_tagged_pairs"):
        parts += [f"Mark({m})." for m in sorted(marks)]
    if program == "tc":
        expected = oracles.tc_expected(edges)
    elif program == "tc_with_witnesses":
        expected = oracles.tc_expected(edges, relation="O")
    elif program == "absence":
        expected = oracles.absent_target_expected(edges, marks)
    elif program == "sp_wilog_tagged_pairs":
        expected = oracles.untagged_source_expected(edges, marks)
    elif program == "cotc":
        expected = oracles.complement_expected(edges, adom)
    else:
        expected = oracles.barrier_expected(edges, adom)
    return {
        "name": program,
        "program": text,
        "ilog": ilog,
        "facts": " ".join(parts),
        "expected": expected,
        "fingerprint": oracles.fingerprint(expected),
    }


def _relational_jobs(rng: random.Random, slots: list, sizes: dict) -> list[dict]:
    """One job per slot ``(program, extras)``.  The k-th of a program's n
    slots takes its size from stratum k of n, so every seed pairs each
    program, mode and option with the same sizes."""
    totals: dict = {}
    for program, _ in slots:
        totals[program] = totals.get(program, 0) + 1
    seen: dict = {}
    jobs = []
    for program, extras in slots:
        k = seen.get(program, 0)
        seen[program] = k + 1
        u = (k + rng.random()) / totals[program]
        low, high = sizes["ilog" if PROGRAMS[program][1] else "datalog"]
        nodes = low + round((high - low) * u)
        planted = program == "barrier" and k % 2 == 1
        edges, marks = _graph(rng, nodes, triangles=planted)
        job = relational_job(program, edges, marks)
        job.update(extras, size=u, seed=k)
        jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def mix_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"protocol-mix:{seed}")
    copies = JOBS_PER_ROUND["protocol-mix"] // len(MIX_SLOTS)
    slots = [
        (program, {"mode": mode, "option": option})
        for _ in range(copies)
        for program, mode, option in MIX_SLOTS
    ]
    return _relational_jobs(rng, slots, {"datalog": (4, 15), "ilog": (4, 10)})


def session_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"service-sessions:{seed}")
    count = JOBS_PER_ROUND["service-sessions"]
    slots = [
        (SESSION_PROGRAMS[i % len(SESSION_PROGRAMS)],
         {"tenant": TENANTS[i % len(TENANTS)]})
        for i in range(count)
    ]
    return _relational_jobs(rng, slots, {"datalog": (4, 10)})


MAKERS = {
    "wfs-arenas": wfs_jobs,
    "protocol-mix": mix_jobs,
    "service-sessions": session_jobs,
    "winmove-procs": procs_jobs,
}


def make_jobs(workload: str, seed: int) -> list[dict]:
    return MAKERS[workload](seed)
