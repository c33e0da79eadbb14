"""Seeded job lists for the benchmark workloads.

A job is one CLI invocation (`torusrep.cli.main(argv)`) plus what the checker
needs to know about its expected output. The program only ever sees `argv`.

Each workload fixes the *shape* of its job list (dimensions, word lengths,
total exponent weight, level ranges) and draws the words at random, keeping
only words that the program's own `mcg.classify` reports as pseudo-Anosov.
Fixing the shape keeps the cost of a job list nearly the same for every seed,
so that run-to-run spread measures the program and not the draw.
"""

from __future__ import annotations

import dataclasses
import random


@dataclasses.dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    checks: int = 0  # PASS/FAIL lines a verify job must print
    letters: tuple[tuple[str, int], ...] = ()  # word of a scan job
    N: int = 0
    levels: tuple[int, ...] = ()  # rows a scan job must print

    @property
    def kind(self) -> str:
        return self.argv[0]


def word_text(letters) -> str:
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in letters)


def draw_word(rng, is_pa, n_letters: int, max_exp: int, weight: int | None = None):
    """A random word of alternating generators with nonzero exponents of size
    at most `max_exp` (and total size `weight`, when given) that `is_pa`
    accepts."""
    exps = [e for e in range(-max_exp, max_exp + 1) if e]
    while True:
        first = rng.randrange(2)
        letters = tuple(
            ("yz"[(first + i) % 2], rng.choice(exps)) for i in range(n_letters)
        )
        if weight is not None and sum(abs(e) for _, e in letters) != weight:
            continue
        if is_pa(word_text(letters)):
            return letters


def verify_job(N: int, oracle_p: tuple[int, int] | None = None) -> Job:
    argv = ["verify", "--N", str(N)]
    if oracle_p is not None:
        argv += ["--oracle", "--p", f"{oracle_p[0]}..{oracle_p[1]}"]
    return Job(tuple(argv), checks=6 + (oracle_p is not None))


def amu_job(letters, N: int, pmax: int) -> Job:
    argv = ("amu", "--word", word_text(letters), "--N", str(N), "--pmax", str(pmax),
            "--format", "json")
    return Job(argv, letters=letters, N=N, levels=tuple(range(2 * N + 1, pmax + 1, 2)))


def limit_job(letters, N: int, lo: int, hi: int) -> Job:
    if lo % 2 == 0 or lo < 2 * N + 1:
        raise ValueError(f"window must start at an odd level >= {2 * N + 1}")
    argv = ("limit", "--word", word_text(letters), "--N", str(N), "--p", f"{lo}..{hi}",
            "--format", "json")
    return Job(argv, letters=letters, N=N, levels=tuple(range(lo, hi + 1, 2)))


def exact_checks(rng, is_pa, tiny: bool) -> list[Job]:
    # The structural suite is fixed by N; the seed only orders the jobs.
    jobs = [verify_job(N) for N in range(2, 4 if tiny else 9)]
    rng.shuffle(jobs)
    return jobs


def level_scan(rng, is_pa, tiny: bool) -> list[Job]:
    # Short words, many levels. pmax is 151 for the amu scans because every
    # checked row costs one O(N^2 p) oracle build in the reference; the limit
    # window and the oracle job carry the scan up to p = 401 and 301. Words
    # have total |exp| 2: among 2-letter words of weight 3 the cost of the word
    # product differs by 2.4x at N = 8 and 4x at N = 12, which would make the
    # cost depend on the seed. For the same reason the N = 12 word is fixed,
    # to z y^-1: its rows show the accuracy defect at N = 12 (up to 2x off).
    # At the smallest N every weight-2 word is scanned, plus one drawn at
    # random, so that the median job is one of them whatever the seed.
    if tiny:
        dims, pmax, window, oracle, top = (2, 3), 21, (2, 15, 21), (2, (5, 21)), 3
    else:
        dims, pmax, window, oracle, top = (8, 10), 151, (8, 301, 401), (6, (13, 301)), 12
    every = [((g, s), (h, -s)) for g, h in ("yz", "zy") for s in (1, -1)]
    jobs = [amu_job(w, dims[0], pmax) for w in every]
    jobs += [amu_job(draw_word(rng, is_pa, 2, 1), N, pmax) for N in dims]
    jobs.append(amu_job((("z", 1), ("y", -1)), top, pmax))
    N, lo, hi = window
    jobs.append(limit_job(draw_word(rng, is_pa, 2, 1), N, lo, hi))
    jobs.append(verify_job(*oracle))
    rng.shuffle(jobs)
    return jobs


# The word the long-word accuracy defect was found with (9 of 45 rows off by
# more than 1e-6 at N = 6, p <= 101); every seed runs it, so the defect shows
# in every run until it is fixed.
WITNESS = (("y", 3), ("z", -2), ("y", 1), ("z", -5), ("y", 2), ("z", -1))
POWER = (("y", 80), ("z", -1))  # cost grows as k^2 in y^k, so k is fixed


def long_words(rng, is_pa, tiny: bool) -> list[Job]:
    # (N, letters, total |exp|, jobs) per slot. The weight is fixed so that a
    # slot costs about the same on every seed. Single words of one slot still
    # differ in cost by a factor of two, so 25 jobs at N = 5 hold the median
    # job and average it over enough draws to keep job_s.p50 steady across
    # seeds. Words are short at N = 7..8 because one longer word there takes
    # 3-20 s on the seed code.
    if tiny:
        slots, pmax, power, witness = ((2, 4, 6, 1), (3, 4, 8, 1)), 21, ((("y", 6), ("z", -1)), 2, 15), (3, 21)
    else:
        slots, pmax, power, witness = (
            ((8, 4, 4, 1), (7, 4, 4, 1), (6, 5, 8, 2), (5, 6, 10, 25), (4, 8, 14, 3)),
            41, (POWER, 4, 31), (6, 101),
        )
    jobs = [
        amu_job(draw_word(rng, is_pa, n, 5, weight), N, pmax)
        for N, n, weight, count in slots
        for _ in range(count)
    ]
    jobs.append(amu_job(WITNESS, *witness))
    jobs.append(amu_job(*power))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "exact_checks": exact_checks,
    "level_scan": level_scan,
    "long_words": long_words,
}


def generate(name: str, seed: int, is_pa, tiny: bool = False) -> list[Job]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), is_pa, tiny)
