"""Pinned output digest of a seeded elimination sweep.

One SHA-256 over the JSON form (representative, degree and op log) of
`res_x2_direct` and `res_x2_modular` on seeded pairs over GF(2^4), GF(3^4)
and GF(7), under every pivot rule, with sigma1 the identity and, where the
field has one, a nontrivial Frobenius power (GF(7) has only the identity).
The constant was recorded from the generic add/mul/frob skew-product loops,
before the log-domain kernel replaced them, so any change to a kernel that
alters a representative or an op log fails here.  A modular call that is
refused records its error code instead.
"""

import hashlib
import json
import random

from oreelim import OreError, res_x2_direct, res_x2_modular
from oreelim.skewdet import PIVOT_RULES
from support import bivar_for, rand_bivar

# (p, m, e1, e2): sigma1 = Frobenius(e1) acts on x1, sigma2 on x2
SWEEP = (
    (2, 4, 0, 1),
    (2, 4, 1, 3),
    (3, 4, 0, 2),
    (3, 4, 3, 1),
    (7, 1, 0, 0),
)
PAIRS = 6

DIGEST = "ce71569d07c302cc3de39fa2d12f1d141ce29779b80658937734af7c7737edf4"


def _record(call, f, g, rule):
    try:
        return call(f, g, rule=rule, seed=5).to_jsonable()
    except OreError as exc:
        return {"error": exc.code}


def sweep_records():
    records = []
    for p, m, e1, e2 in SWEEP:
        ring = bivar_for(p, m, e1, e2)
        rng = random.Random(f"digest/{p}/{m}/{e1}/{e2}")
        for _ in range(PAIRS):
            f = rand_bivar(ring, rng, 3, 3, min_d2=1)
            g = rand_bivar(ring, rng, 2, 2, min_d2=1)
            for rule in PIVOT_RULES:
                records.append(
                    [
                        [p, m, e1, e2, rule],
                        _record(res_x2_direct, f, g, rule),
                        _record(res_x2_modular, f, g, rule),
                    ]
                )
    return records


def test_sweep_digest_is_pinned():
    text = json.dumps(sweep_records(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
