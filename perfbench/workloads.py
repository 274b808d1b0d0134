"""The benchmark's workloads and their seeded inputs.

Inputs are generated here, not with the package's CLI helpers, so a change
to the CLI cannot shift them.  Every pair has full x2-degree and full
x1-degree with nonzero leading coefficients in every x2-coefficient, so the
degree bound D, the working degree M and the working field are the same for
every pair of a workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1
POOL_SIZE = 40  # distinct pairs per run; the timed loop cycles through them


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    m: int
    e1: int
    e2: int
    deg_x2: int
    deg_x1: int
    route: str  # "direct" | "modular"


WORKLOADS = {
    w.name: w
    for w in (
        # skewdet and ore_uni do nearly all the work, modres none: the
        # no-change side for every modres change.
        Workload("direct-skew", 3, 4, 1, 2, 5, 4, "direct"),
        # D=24, M=32, bits backend: working-field triangularization, Moore
        # recovery and a cold plan of about 0.5 s.
        Workload("modular-char2", 2, 8, 1, 1, 4, 3, "modular"),
        # D=12, M=16, poly backend with odd-p add: a bits-only win shows no
        # change here.
        Workload("modular-odd", 3, 4, 1, 2, 3, 2, "modular"),
        # D=40, M=2, table backend in plugin mode: Horner chain and
        # Vandermonde recovery over cheap field operations; the no-change
        # side for Moore-only and bits/poly changes.
        Workload("modular-plugin", 7, 1, 0, 0, 5, 4, "modular"),
    )
}


def _rng(workload, seed):
    return random.Random(f"{workload.name}/{seed}")


def _full_bivar(ring, rng, deg_x2, deg_x1):
    q = ring.ctx.q
    coeffs = []
    for _ in range(deg_x2 + 1):
        packed = [rng.randrange(q) for _ in range(deg_x1)]
        packed.append(rng.randrange(1, q))
        coeffs.append(ring.inner.from_packed(packed))
    return ring.poly(coeffs)


def make_pairs(workload, ring, seed, count=POOL_SIZE):
    """`count` seeded (f, g) pairs over `ring`; the same seed gives the same
    pairs."""
    rng = _rng(workload, seed)
    return [
        (
            _full_bivar(ring, rng, workload.deg_x2, workload.deg_x1),
            _full_bivar(ring, rng, workload.deg_x2, workload.deg_x1),
        )
        for _ in range(count)
    ]


def operands(seed, q, count):
    """Seeded nonzero packed field values for the field microbench."""
    rng = random.Random(f"operands/{q}/{seed}")
    return [rng.randrange(1, q) for _ in range(count)]
