"""Seed -> input generator for the three benchmark workloads.

A seed picks p and Sigma inside a fixed shape, so the layer group orders
|G_n| never change with the seed: only which places play which role does.

- ``flagship_q3``: ``verify all`` with q = 3, N = 1, geometry on.  The seed
  picks one of the three monic irreducible quadratics for p and an ordered
  pair of distinct degree-1 places for (Sigma, sigma_alt).  18 configs.
- ``deep_q2``: ``verify all`` with q = 2, p = x^2+x+1, N = 3.  The seed
  swaps Sigma and sigma_alt between x and x+1.  2 configs.
- ``algebra``: ``verify all --cases ALGEBRA_CASES`` on the smallest tower,
  q = 2, p = x^2+x+1, N = 1, geometry on.  The seed swaps Sigma and
  sigma_alt between x and x+1 and picks the algebra suite's seed (0 or 1),
  which the report records.  4 configs.

Each job carries a ``key`` naming its config; ``digests.json`` pins the
sha256 of the CLI's ``--out`` report for every key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

FLAGSHIP_P = ("x^2+1", "x^2+x+2", "x^2+2x+2")
FLAGSHIP_LINEAR = ("x", "x+1", "x+2")
FLAGSHIP_PAIRS = tuple(itertools.permutations(FLAGSHIP_LINEAR, 2))
FLAGSHIP_ORDERS = (4, 36)

DEEP_P = "x^2+x+1"
DEEP_PAIRS = (("x", "x+1"), ("x+1", "x"))
DEEP_ORDERS = (3, 12, 48, 192)

# About 9 s of fitting-ideal cases on a 2-vCPU Intel Xeon VM (Python 3.11).
ALGEBRA_CASES = 4000
ALGEBRA_ORDERS = DEEP_ORDERS[:2]

WORKLOADS = ("flagship_q3", "deep_q2", "algebra")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``argv`` plus the ``--config`` blob."""

    workload: str
    key: str
    argv: tuple
    config: dict
    layer_orders: tuple  # |G_n| for n = 0..N


def _tower_job(workload, q, p, sigma, alt, N, orders, seed=0, cases=None):
    config = {"q": q, "f": "1", "p": p, "Sigma": [sigma], "sigma_alt": [alt],
              "N": N, "degree": None, "precision": 24, "budget": 10 ** 7,
              "seed": seed}
    key = f"{workload}:p={p}:Sigma={sigma}:alt={alt}"
    argv = ("verify", "all")
    if cases is not None:
        key += f":seed={seed}:cases={cases}"
        argv += ("--cases", str(cases))
    return Job(workload, key, argv, config, orders)


def job_for(workload: str, seed: int) -> Job:
    """The deterministic input of ``workload`` for ``seed``."""
    if workload == "flagship_q3":
        p = FLAGSHIP_P[seed % len(FLAGSHIP_P)]
        sigma, alt = FLAGSHIP_PAIRS[(seed // len(FLAGSHIP_P)) % len(FLAGSHIP_PAIRS)]
        return _tower_job(workload, "3", p, sigma, alt, 1, FLAGSHIP_ORDERS)
    if workload == "deep_q2":
        sigma, alt = DEEP_PAIRS[seed % len(DEEP_PAIRS)]
        return _tower_job(workload, "2", DEEP_P, sigma, alt, 3, DEEP_ORDERS)
    if workload == "algebra":
        sigma, alt = DEEP_PAIRS[seed % len(DEEP_PAIRS)]
        return _tower_job(workload, "2", DEEP_P, sigma, alt, 1, ALGEBRA_ORDERS,
                          seed=(seed // len(DEEP_PAIRS)) % 2, cases=ALGEBRA_CASES)
    raise ValueError(f"unknown workload {workload!r}")


def all_jobs():
    """Every distinct job any seed can produce, one per digest key."""
    seen = {}
    span = len(FLAGSHIP_P) * len(FLAGSHIP_PAIRS)
    for workload in WORKLOADS:
        for seed in range(span):
            job = job_for(workload, seed)
            seen.setdefault(job.key, job)
    return list(seen.values())
