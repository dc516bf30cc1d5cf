"""Answers computed apart from the program under test.

Every checker here is plain Python over tuples: nothing is imported from
``repro``.  Each takes the generated input (edges, marks, moves) and
returns the expected output as a set of ``(relation, values)`` pairs, so
a result from the program is checked by converting its facts to the same
shape, or by comparing fingerprints computed the way the service stores
them (sha256 over the sorted fact texts).
"""

from __future__ import annotations

import hashlib
from collections import deque

# ----------------------------------------------------------------------
# Win-move: retrograde analysis (backward induction from dead ends)
# ----------------------------------------------------------------------


def retrograde(moves) -> tuple[set, set, set]:
    """(won, lost, drawn) positions of the game graph *moves*.

    A dead end is lost; a position with a move to a lost position is won;
    a position whose every move reaches a won position is lost; the rest
    are drawn.  Independent of the well-founded semantics, so it checks
    the alternating fixpoint without sharing any code with it.
    """
    successors: dict = {}
    predecessors: dict = {}
    for source, target in moves:
        successors.setdefault(source, set()).add(target)
        successors.setdefault(target, set())
        predecessors.setdefault(target, set()).add(source)
    pending = {position: len(out) for position, out in successors.items()}
    status: dict = {}
    queue = deque()
    for position, count in pending.items():
        if count == 0:
            status[position] = "lost"
            queue.append(position)
    while queue:
        position = queue.popleft()
        for predecessor in predecessors.get(position, ()):
            if predecessor in status:
                continue
            if status[position] == "lost":
                status[predecessor] = "won"
                queue.append(predecessor)
            else:
                pending[predecessor] -= 1
                if pending[predecessor] == 0:
                    status[predecessor] = "lost"
                    queue.append(predecessor)
    won = {p for p, s in status.items() if s == "won"}
    lost = {p for p, s in status.items() if s == "lost"}
    drawn = set(successors) - won - lost
    return won, lost, drawn


def winmove_expected(moves) -> set:
    """The true ``Win`` facts of ``Win(x) :- Move(x, y), not Win(y).``"""
    won, _, _ = retrograde(moves)
    return {("Win", (p,)) for p in won}


# ----------------------------------------------------------------------
# Relational answers for the protocol programs
# ----------------------------------------------------------------------


def closure(edges) -> set:
    """Transitive closure of *edges* by one BFS per source."""
    successors: dict = {}
    for source, target in edges:
        successors.setdefault(source, set()).add(target)
    pairs = set()
    for source in successors:
        seen: set = set()
        queue = deque(successors[source])
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(successors.get(node, ()))
        pairs.update((source, node) for node in seen)
    return pairs


def tc_expected(edges, relation: str = "T") -> set:
    return {(relation, pair) for pair in closure(edges)}


def complement_expected(edges, adom) -> set:
    """``O(x,y) :- Adom(x), Adom(y), not T(x,y)``; *adom* is the active
    domain of the edges."""
    reach = closure(edges)
    return {
        ("O", (x, y)) for x in adom for y in adom if (x, y) not in reach
    }


def absent_target_expected(edges, marks) -> set:
    """``O(x,y) :- E(x,y), not Mark(y)`` (the semi-positive program)."""
    return {("O", (x, y)) for x, y in edges if y not in marks}


def untagged_source_expected(edges, marks) -> set:
    """``O(x,y)`` for every edge whose source is not marked: the output
    of the SP-wILOG program that tags each such edge with a fresh value."""
    return {("O", (x, y)) for x, y in edges if x not in marks}


def barrier_expected(edges, adom) -> set:
    """Brute force for the no-guarantee program: a value is dropped when
    it heads a directed triangle that has a vertex-disjoint partner
    triangle; every other ``Adom`` value is output."""
    edge_set = set(edges)
    nodes = sorted(adom)
    triangles = [
        (x, y, z)
        for x in nodes
        for y in nodes
        for z in nodes
        if len({x, y, z}) == 3
        and (x, y) in edge_set
        and (y, z) in edge_set
        and (z, x) in edge_set
    ]
    dropped = set()
    for first in triangles:
        for second in triangles:
            if not set(first) & set(second):
                dropped.add(first[0])
    return {("O", (x,)) for x in adom if x not in dropped}


# ----------------------------------------------------------------------
# Fingerprints, computed the way the run store records them
# ----------------------------------------------------------------------


def _fact_text(relation: str, values) -> str:
    return f"{relation}({', '.join(repr(v) for v in values)})"


def fingerprint(facts) -> str:
    """sha256 over the sorted fact texts of *facts* (``(relation, values)``
    pairs).  The order sorts by relation, then by each value's type name
    and text, which is the order the program's fingerprints use."""
    ordered = sorted(
        facts,
        key=lambda fact: (
            fact[0],
            tuple((type(v).__name__, repr(v)) for v in fact[1]),
        ),
    )
    canonical = "\n".join(_fact_text(rel, values) for rel, values in ordered)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def as_pairs(instance) -> set:
    """A program ``Instance`` as a set of ``(relation, values)`` pairs."""
    return {(fact.relation, tuple(fact.values)) for fact in instance}


#: Figure-2 class each service program's certificate must carry.
EXPECTED_CLASS = {
    "tc": "M",
    "absence": "Mdistinct",
    "cotc": "Mdisjoint",
    "barrier": None,
}

