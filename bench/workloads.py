"""Seeded request streams for the three benchmark workloads.

A stream is an endless sequence of rounds.  Every round of a workload has
the same composition and a run measures whole rounds, so every run measures
the same mix whatever the seed; the seed picks the indices, fields, formats
and order.  Only the generated argv reaches the program.

- lookup: single-answer queries at huge q.  Each round sends 23
  requests: 19 structures, each with a fresh seeded index (one heavy
  modulus in turn, the two tail moduli twice, every median and light
  modulus once), two family queries and two `structure --verify` requests
  on enumerable fields.  Round 0 also sends every other heavy modulus
  once, so that each modulus is met cold in round 0 and warm in every
  later round: the numthy caches are reused, indices do not repeat.
- catalog: whole-field catalogs.  Each round draws four new fields from
  the slots in CATALOG_SLOTS and asks for each field's classes and
  isolated indices, and for the small one also its pairs.  The large
  fields share one shape of q - chi and the small ones one band of pair
  counts, so rounds cost about the same across seeds.
- oracle: `redei verify --qmax N`, with N drawn once per run from
  ORACLE_QMAX.  N = 149..150 and N = 151..156 sweep the same fields up to
  149 and 151, so the seed changes the answer but not the cost by more
  than one prime field.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import count

from validate import trial_factor

__all__ = [
    "Request",
    "WORKLOADS",
    "ORACLE_QMAX",
    "RSS_ROUNDS",
    "TRACE_ROUNDS",
    "WARMUP_ROUNDS",
    "stream",
]

WORKLOADS = ("lookup", "catalog", "oracle")

# Every lookup round has the same composition, chosen so that the median
# and the tail each fall inside a group of requests of nearly equal cost,
# where they do not jump when a seed shifts a few requests across a group
# boundary.  Costs per request are those of the library when the benchmark
# was defined, on a 2-vCPU VM with Python 3.11:
#
# (p, k, chi): one per round, in turn, and all of them in round 0; q - chi
# has 7680 to 16128 divisors; 1.6 to 2.1 s cold and 1.0 to 1.8 s warm.
# These sit above the tail.  5**40 and 7**30 with chi = +1 are left out:
# 4 s cold for the first, and both would lengthen the warm-up round.
LOOKUP_HEAVY = ((3, 48, 1), (7, 24, 1), (13, 20, 1))
# Twice each per round, about 0.4 s (4608 and 6912 divisors): the tail.
LOOKUP_TAIL = ((23, 12, 1), (31, 12, 1))
# Once each per round, 0.08 to 0.12 s warm and under 0.4 s cold (512 to
# 1792 divisors): the median.
LOOKUP_MEDIAN = (
    (7, 30, -1), (3, 40, 1), (3, 42, 1), (3, 44, 1), (5, 24, 1), (17, 12, 1),
    (7, 20, 1), (19, 15, -1), (3, 36, 1),
)
# Once each per round, under 0.04 s (16 to 128 divisors).
LOOKUP_LIGHT = ((3, 60, -1), (11, 24, -1), (5, 40, -1), (13, 20, -1), (3, 48, -1))
# (family, p, exponent): p-qmp1 at q = p**exponent with chi = -1, quarter
# at the same q with chi = +1 (q == 1 mod 8 for every even exponent).
LOOKUP_FAMILIES = (
    ("p-qmp1", 3, 60), ("p-qmp1", 5, 40), ("p-qmp1", 7, 30), ("p-qmp1", 11, 24),
    ("p-qmp1", 13, 20), ("p-qmp1", 3, 48), ("quarter", 3, 60), ("quarter", 7, 30),
    ("quarter", 13, 20),
)
# (p, k) for `structure --verify`: one explicit table each, 0.02 to 0.35 s,
# below the tail.  Fields such as 3**7, 3**8 and 7**4 are left out: one
# table there takes 0.8 to 5 s and would move the tail by itself.
LOOKUP_VERIFY_FIELDS = (
    (9973, 1), (7919, 1), (3, 5), (3, 6), (5, 4), (7, 3), (11, 3), (31, 2),
    (13, 2),
)
FAMILIES_PER_ROUND = 2
VERIFY_PER_ROUND = 2

# Large fields: 3e4 <= q < 4e4, and n = q - chi has exactly
# CATALOG_LARGE_SHAPE[0] divisors and CATALOG_LARGE_SHAPE[1] <= phi(n) <
# CATALOG_LARGE_SHAPE[2].  A classes request visits phi(n) * t (index,
# divisor) pairs and computes about n orders afresh, so these fields cost
# about the same.  A round holds three of them, so its isolated replies form
# one group of nearly equal cost, where the median falls, and its classes
# replies another, where the tail falls.
CATALOG_LARGE_Q = (30000, 40000)
CATALOG_LARGE_SHAPE = (16, 10_000, 12_000)
# Small fields, one per round, with the pairs request as well: the (q, chi)
# with q < 2000 whose pair catalogs hold 2e4 to 4e4 pairs, as the library
# counted them when the benchmark was defined.  Over all q < 2000 the count
# runs from 10**3 to 1.3e5; the pairs reply is the largest one a catalog
# session holds, so a narrow band keeps the peak resident set and the pairs
# latency about the same from seed to seed.
CATALOG_PAIRS_FIELDS = (
    (1051, -1), (1093, -1), (1153, -1), (1171, -1), (1193, 1), (1201, -1),
    (1229, 1), (1249, -1), (1297, -1), (1321, -1), (1327, -1), (1361, -1),
    (1459, 1), (1489, -1), (1493, 1), (1499, 1), (1543, -1), (1543, 1),
    (1579, 1), (1613, -1), (1637, 1), (1697, -1), (1699, 1), (1733, -1),
    (1733, 1), (1759, 1), (1783, -1), (1787, 1), (1801, -1), (1831, -1),
    (1867, 1), (1889, 1), (1901, -1), (1931, 1), (1979, 1),
)
# (name, fields per round, with pairs)
CATALOG_SLOTS = (("small", 1, True), ("large", 3, False))

ORACLE_QMAX = tuple(range(149, 157))

# Rounds in the fixed request list of a traced run.
TRACE_ROUNDS = {"lookup": 2, "catalog": 3, "oracle": 1}
# Leading rounds that a timed run sends and validates but leaves out of its
# metrics.  After lookup's round 0 every lookup modulus is warm, so every
# measured lookup round meets warm moduli with fresh indices, and a run that
# fits one round more or less in its time budget measures the same mix; the
# cost of a cold modulus (is_prime, factorize) shows only in the traced run,
# which includes round 0.  catalog's first round meets colder caches than
# the rounds after it, and is left out for the same reason.  Every oracle
# request starts cold by design.
WARMUP_ROUNDS = {"lookup": 1, "catalog": 1, "oracle": 0}
# Rounds, warm-up included, that every timed lookup and catalog run sends
# before it may stop, and over which it reports the peak resident set: the
# caches grow with every round, so a run that fits more rounds in its time
# budget would otherwise report more memory.  Four rounds take 15 to 30 s,
# so today they never lengthen a run.  oracle's sessions each send one
# request.
RSS_ROUNDS = {"lookup": 4, "catalog": 4}


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its reply must satisfy."""

    argv: tuple[str, ...]
    kind: str
    round: int
    q: int = 0
    chi: int = 0
    m: int = 0
    p: int = 0
    fmt: str = "json"
    family: str = ""
    qmax: int = 0


def _coprime_index(rng: random.Random, n: int) -> int:
    while True:
        m = rng.randrange(2, n)
        if math.gcd(m, n) == 1:
            return m


def _structure(rng: random.Random, rnd: int, p: int, k: int, chi: int) -> Request:
    q = p**k
    m = _coprime_index(rng, q - chi)
    argv = ("structure", "--p", str(p), "--k", str(k), "--chi", str(chi),
            "--m", str(m), "--format", "json")
    return Request(argv, "structure", rnd, q=q, chi=chi, m=m, p=p)


def _lookup_round(rng: random.Random, rnd: int, first_heavy: int) -> list[Request]:
    turn = (first_heavy + rnd) % len(LOOKUP_HEAVY)
    heavies = LOOKUP_HEAVY[turn:turn + 1]
    if rnd == 0:
        heavies = LOOKUP_HEAVY[turn:] + LOOKUP_HEAVY[:turn]
    structures = [_structure(rng, rnd, *heavy) for heavy in heavies]
    structures += [_structure(rng, rnd, *modulus) for modulus in LOOKUP_TAIL * 2]
    structures += [
        _structure(rng, rnd, *modulus) for modulus in LOOKUP_MEDIAN + LOOKUP_LIGHT
    ]
    families = []
    for family, p, e in rng.sample(LOOKUP_FAMILIES, FAMILIES_PER_ROUND):
        if family == "p-qmp1":
            argv = ("family", "p-qmp1", "--p", str(p), "--twok", str(e), "--format", "json")
            chi = -1
        else:
            argv = ("family", "quarter", "--p", str(p), "--k", str(e), "--chi", "1",
                    "--format", "json")
            chi = 1
        families.append(Request(argv, "family", rnd, q=p**e, chi=chi, p=p, family=family))
    verifies = []
    for p, k in rng.sample(LOOKUP_VERIFY_FIELDS, VERIFY_PER_ROUND):
        q = p**k
        chi = rng.choice((-1, 1))
        m = _coprime_index(rng, q - chi)
        argv = ("structure", "--q", str(q), "--chi", str(chi), "--m", str(m),
                "--verify", "--format", "json")
        verifies.append(Request(argv, "verify-structure", rnd, q=q, chi=chi, m=m, p=p))
    out = structures + families + verifies
    rng.shuffle(out)
    return out


def _odd_prime_powers(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(hi - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, hi, i)))
    out = set()
    for p in range(3, hi, 2):
        if sieve[p]:
            power = p
            while power < hi:
                if power >= lo:
                    out.add(power)
                power *= p
    return sorted(out)


def _shape(n: int) -> tuple[int, int]:
    """(number of divisors, Euler phi) of n."""
    ndiv, phi = 1, n
    for p, e in trial_factor(n).items():
        ndiv *= e + 1
        phi -= phi // p
    return ndiv, phi


def catalog_candidates() -> dict[str, list[tuple[int, int]]]:
    """(q, chi) candidates of every catalog slot, ascending."""
    lo, hi = CATALOG_LARGE_Q
    t, phi_lo, phi_hi = CATALOG_LARGE_SHAPE
    large = []
    for q in _odd_prime_powers(lo, hi):
        for chi in (-1, 1):
            ndiv, phi = _shape(q - chi)
            if ndiv == t and phi_lo <= phi < phi_hi:
                large.append((q, chi))
    return {"small": list(CATALOG_PAIRS_FIELDS), "large": large}


def _catalog_rounds(rng: random.Random):
    candidates = catalog_candidates()
    queues = {name: [] for name in candidates}
    formats = ("json", "csv")
    for rnd in count():
        fields = []
        for name, per_round, with_pairs in CATALOG_SLOTS:
            for _ in range(per_round):
                if not queues[name]:
                    queues[name] = rng.sample(candidates[name], len(candidates[name]))
                fields.append((queues[name].pop(), with_pairs))
        rng.shuffle(fields)
        out = []
        for (q, chi), with_pairs in fields:
            commands = ("classes", "isolated", "pairs") if with_pairs else ("classes", "isolated")
            for command in commands:
                fmt = rng.choice(formats)
                argv = (command, "--q", str(q), "--chi", str(chi), "--format", fmt)
                out.append(Request(argv, command, rnd, q=q, chi=chi, fmt=fmt))
        yield out


def stream(workload: str, seed: int, workers: int):
    """Endless request stream of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lookup":
        first_heavy = rng.randrange(len(LOOKUP_HEAVY))
        for rnd in count():
            yield from _lookup_round(rng, rnd, first_heavy)
    elif workload == "catalog":
        for requests in _catalog_rounds(rng):
            yield from requests
    elif workload == "oracle":
        qmax = rng.choice(ORACLE_QMAX)
        argv = ("verify", "--qmax", str(qmax), "--workers", str(workers))
        for rnd in count():
            yield Request(argv, "oracle", rnd, qmax=qmax)
    else:
        raise ValueError(f"unknown workload {workload!r}")
