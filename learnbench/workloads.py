"""The benchmark's workloads, target programs and hash seeds.

Each workload fixes a bundled task family, its example count, the share of
training labels flipped, the data and noise seeds and the ``learn``
timeout.  README.md says why each one is in the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    n_examples: int
    noise: float
    timeout: float
    # True when learn is expected to end before its timeout, so that the
    # optimality bound on the returned cost applies
    natural_end: bool
    # PYTHONHASHSEED values the learn processes step through
    hash_seeds: tuple = (1, 2, 3, 4)
    data_seed: int = 0
    noise_seed: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("zendo1-clean", "zendo1", 100, 0.0, 120.0, True),
    Workload("evens-clean", "evens", 200, 0.0, 120.0, True),
    Workload("zendo1-noisy", "zendo1", 100, 0.1, 5.0, False),
    # its learn call misses the deadline on every run, so its inputs,
    # the hash seed included, do not depend on the run's seed
    Workload("dropk-deadline", "dropk", 100, 0.1, 5.0, False, hash_seeds=(1,)),
)}

# A learn call that returns later than timeout * (1 + DEADLINE_SLACK) has
# missed its deadline and counts as failed.  The slack absorbs the test
# call that runs past the deadline on zendo1-noisy (0.3 s at most seen).
DEADLINE_SLACK = 0.25

# The target program of each bundled family, written out here so that the
# checker does not read it from the package.
TARGETS = {
    "evens": """
        evens(A):- empty(A).
        evens(A):- head(A,B),tail(A,C),even(B),evens(C).
    """,
    "dropk": """
        dropk(A,B,C):- tail(A,C),one(B).
        dropk(A,B,C):- decrement(B,E),tail(A,D),dropk(D,E,C).
    """,
    "reverse": """
        reverse(A,B):- empty(A),empty_out(B).
        reverse(A,B):- head(A,D),tail(A,E),reverse(E,C),append(C,D,B).
    """,
    "sorted": """
        sorted(A):- tail(A,B),empty(B).
        sorted(A):- tail(A,D),head(A,B),head(D,C),geq(C,B),sorted(D).
    """,
    "zendo1": """
        zendo1(A):- piece(A,B),blue(B),contact(B,C),red(C).
    """,
    "zendo2": """
        zendo2(A):- piece(A,B),red(B),small(B).
        zendo2(A):- piece(A,B),upright(B),contact(B,C),blue(C).
    """,
}
