"""Correctness checks on every timed call, made after timing.

* modular workloads: the representative equals `res_x2_direct` on the same
  pair, coefficient for coefficient;
* every workload at the default seed: the representative's digest equals the
  one recorded in `digests.json` (representatives must stay bit-identical);
* direct-skew at other seeds: vanishing and degree agree (`surrogates_equal`)
  with the direct route under the `first_nonzero` pivot rule.

A call that raised, or whose result fails a check, counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def digest(det):
    """Short stable digest of a representative and the field it lives over."""
    rep = det.rep
    text = json.dumps([rep.ring.ctx.spec_string(), rep.ring.sigma.e, list(rep.coeffs)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests(workload_name):
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload_name)


def check_calls(workload, pairs, calls, digests=None, direct=None):
    """Failure messages for `calls`, a list of (pair index, result or
    exception).  `digests` (one per pool pair) is checked when given;
    `direct` is `res_x2_direct`, the reference for the other checks."""
    failures = []
    expected = {}  # pair index -> predicate on a result

    for idx in sorted({i for i, _ in calls}):
        f, g = pairs[idx]
        checks = []
        if digests is not None:
            want = digests[idx]
            checks.append(("digest", lambda det, want=want: digest(det) == want))
        if workload.route == "modular":
            ref = direct(f, g)
            checks.append(("direct route", lambda det, ref=ref: det.rep == ref.rep))
        elif digests is None:
            from oreelim import surrogates_equal

            ref = direct(f, g, rule="first_nonzero")
            checks.append(
                ("first_nonzero surrogates",
                 lambda det, ref=ref: bool(surrogates_equal(det, ref)))
            )
        expected[idx] = checks

    for n, (idx, det) in enumerate(calls):
        if isinstance(det, Exception):
            failures.append(f"call {n} (pair {idx}) raised {type(det).__name__}: {det}")
            continue
        for label, ok in expected[idx]:
            if not ok(det):
                failures.append(f"call {n} (pair {idx}) disagrees with the {label}")
                break
    return failures
