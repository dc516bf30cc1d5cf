"""Tests of the benchmark's own parts: the answer checkers, the job
generator and the statistics.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402


def _flip(expected: set) -> set:
    """A planted wrong answer: one fact dropped (or one added if empty)."""
    if expected:
        return set(sorted(expected)[1:])
    return {("O", (999, 999))}


# ----------------------------------------------------------------------
# Checkers agree with the program and reject planted wrong answers
# ----------------------------------------------------------------------


def test_retrograde_small_games():
    won, lost, drawn = oracles.retrograde({(0, 1), (1, 2)})
    assert (won, lost, drawn) == ({1}, {0, 2}, set())
    won, lost, drawn = oracles.retrograde({(0, 1), (1, 0), (2, 0)})
    assert (won, lost, drawn) == (set(), set(), {0, 1, 2})


def test_retrograde_matches_solve_game():
    from repro.datalog.games import solve_game
    from repro.datalog.instance import Instance
    from repro.datalog.terms import Fact

    rng = random.Random(7)
    for _ in range(30):
        moves = {(rng.randrange(12), rng.randrange(12)) for _ in range(18)}
        solution = solve_game(Instance(Fact("Move", m) for m in moves))
        assert oracles.retrograde(moves) == (
            set(solution.won), set(solution.lost), set(solution.drawn)
        )


@pytest.mark.parametrize("workload", ["wfs-arenas", "winmove-procs"])
def test_winmove_oracle_matches_program_and_rejects_flip(workload, tmp_path):
    runner = run.WfsRunner(tmp_path)
    runner.setup()
    for job in gen.make_jobs(workload, 3)[:6]:
        assert runner.run_job(job).failed == 0
        planted = dict(job, expected=_flip(job["expected"]))
        outcome = runner.run_job(planted)
        assert outcome.failed == 1 and outcome.wrong


def _program_answer(job: dict) -> set:
    from repro.core.analyzer import plan_ilog_distribution, query_for
    from repro.datalog.instance import Instance
    from repro.datalog.parser import parse_facts, parse_program
    from repro.ilog.program import parse_ilog_program

    facts = Instance(parse_facts(job["facts"]))
    if job["ilog"]:
        query = plan_ilog_distribution(parse_ilog_program(job["program"])).query
    else:
        query = query_for(parse_program(job["program"]))
    return oracles.as_pairs(query(facts))


@pytest.mark.parametrize("program", sorted(gen.PROGRAMS))
def test_relational_oracles_match_program(program):
    rng = random.Random(f"oracle-test:{program}")
    for nodes, triangles in ((4, False), (6, True), (9, False), (12, True)):
        edges, marks = gen._graph(rng, nodes, triangles)
        job = gen.relational_job(program, edges, marks)
        assert _program_answer(job) == job["expected"]


def test_fingerprint_matches_the_program_and_sees_a_flip():
    from repro.datalog.instance import Instance
    from repro.datalog.terms import Fact
    from repro.transducers.telemetry import output_fingerprint

    facts = {("T", (2, 10)), ("T", (10, 2)), ("O", (1,)), ("T", (3, 3))}
    program_side = output_fingerprint(Instance(Fact(r, v) for r, v in facts))
    assert oracles.fingerprint(facts) == program_side
    assert oracles.fingerprint(_flip(facts)) != program_side


def test_mix_runner_rejects_planted_answers(tmp_path):
    runner = run.MixRunner(tmp_path)
    runner.setup()
    try:
        jobs = gen.make_jobs("protocol-mix", 4)
        for name in gen.PROGRAMS:
            job = min(
                (j for j in jobs if j["name"] == name), key=lambda j: j["size"]
            )
            assert runner.run_job(job).failed == 0, name
            wrong = oracles.fingerprint(_flip(job["expected"]))
            outcome = runner.run_job(dict(job, fingerprint=wrong))
            assert outcome.failed == 1 and outcome.wrong, name
    finally:
        runner.close()


def test_barrier_brute_force_drops_heads_of_disjoint_triangles():
    edges = {(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 0)}
    expected = oracles.barrier_expected(edges, {0, 1, 2, 3, 4, 5, 6})
    assert expected == {("O", (6,))}
    single = oracles.barrier_expected({(0, 1), (1, 2), (2, 0)}, {0, 1, 2})
    assert single == {("O", (0,)), ("O", (1,)), ("O", (2,))}


def test_figure2_classes_match_certificates_and_reject_a_wrong_one():
    from repro.core.certificate import certificate
    from repro.datalog.parser import parse_program

    for name, expected in oracles.EXPECTED_CLASS.items():
        cert = certificate(parse_program(gen.PROGRAMS[name][0]))
        assert cert["monotonicity"] == expected, name
    # Pairwise distinct: a certificate carrying any other program's class
    # fails the session's check.
    classes = list(oracles.EXPECTED_CLASS.values())
    assert len(set(classes)) == len(classes)


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------


def _digest(workload: str, seed: int) -> str:
    jobs = gen.make_jobs(workload, seed)
    blob = json.dumps(
        [{k: v for k, v in job.items() if k != "expected"} for job in jobs],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(gen.MAKERS))
def test_generation_is_byte_identical_across_processes(workload):
    here = _digest(workload, 5)
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import test_perfbench as t; print(t._digest(sys.argv[2], 5))"
    )
    env = dict(os.environ, PYTHONHASHSEED="123")
    other = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).parent), workload],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    ).stdout.strip()
    assert here == other
    assert _digest(workload, 6) != here


def test_sizes_cover_every_stratum():
    """Arena sizes cover the strata of [0, 1); relational sizes do so per
    program."""
    for workload, maker in gen.MAKERS.items():
        groups: dict = {}
        for job in maker(9):
            groups.setdefault(job.get("name"), []).append(job["size"])
        for sizes in groups.values():
            sizes.sort()
            count = len(sizes)
            assert all(i / count <= s < (i + 1) / count for i, s in enumerate(sizes))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    for count in (40, 57, 100, 240, 1000, 5000):
        p = run.tail_percentile(count)
        assert count * (1 - p / 100) >= 10 - 1e-9
    assert run.tail_percentile(20) == 50


def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 75) == 4.0
    assert run.percentile(values, 90) == pytest.approx(4.6)
