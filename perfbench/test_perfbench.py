"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import check_calls, digest  # noqa: E402
from oreelim import res_x2_direct  # noqa: E402
from run import quiet_scaled, route, rings  # noqa: E402
from spans import SpanRecorder, span_totals  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_pairs  # noqa: E402


def _pair(name, seed=DEFAULT_SEED):
    workload = WORKLOADS[name]
    _, ring = rings(workload)
    return workload, make_pairs(workload, ring, seed, count=1)[0]


def test_same_seed_same_pairs():
    for workload in WORKLOADS.values():
        _, ring = rings(workload)
        a = make_pairs(workload, ring, 7, count=3)
        b = make_pairs(workload, ring, 7, count=3)
        c = make_pairs(workload, ring, 8, count=3)
        assert a == b
        assert a != c
        for f, g in a:
            for h in (f, g):
                assert h.degree == workload.deg_x2
                assert all(coeff.degree == workload.deg_x1 for coeff in h.coeffs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_equals_untraced_and_self_times_fit(name):
    workload, (f, g) = _pair(name)
    call = route(workload)
    plain = call(f, g)
    recorder = SpanRecorder()
    recorder.install()
    try:
        traced, spans = recorder.call("pair", call, f, g)
    finally:
        recorder.uninstall()
    assert recorder.absent == []
    assert digest(traced) == digest(plain)
    assert traced.rep == plain.rep and traced.op_log == plain.op_log

    totals = span_totals(spans)
    pair_ns = totals["pair"][1]
    stages = sum(self_ns for span, (self_ns, _, _) in totals.items() if span != "pair")
    assert 0 < stages <= pair_ns
    assert all(self_ns >= 0 for self_ns, _, _ in totals.values())
    assert totals["skewdet.triangularize"][1] <= pair_ns
    if workload.route == "modular":
        assert "modres.recover" in totals and "modres.chain" in totals
    else:
        assert "skewdet.diag_product" in totals and "modres.recover" not in totals


def test_uninstall_restores_originals():
    from oreelim import modres, ore_uni

    before = (modres.res_x2_modular, ore_uni.OrePoly.__mul__)
    recorder = SpanRecorder()
    recorder.install()
    assert modres.res_x2_modular is not before[0]
    recorder.uninstall()
    assert (modres.res_x2_modular, ore_uni.OrePoly.__mul__) == before


def test_missing_layer_is_reported_absent():
    recorder = SpanRecorder()
    recorder.install(
        [
            ("gone", "oreelim.modres", "no_such_function"),
            ("gone", "oreelim.no_such_module", "f"),
            ("modres.chain", "oreelim.modres", "chain_evaluate"),
        ]
    )
    try:
        assert recorder.absent == [
            "oreelim.modres.no_such_function",
            "oreelim.no_such_module.f",
        ]
    finally:
        recorder.uninstall()


def test_injected_wrong_reference_counts_as_failure():
    workload, (f, g) = _pair("modular-odd")
    result = route(workload)(f, g)
    calls = [(0, result), (0, result)]
    pairs = [(f, g)]
    assert check_calls(workload, pairs, calls, digests=[digest(result)], direct=res_x2_direct) == []

    assert len(check_calls(workload, pairs, calls, digests=["0" * 16], direct=res_x2_direct)) == 2

    def wrong_direct(f, g, **kwargs):
        ref = res_x2_direct(f, g, **kwargs)
        return replace(ref, rep=ref.rep + 1)

    assert len(check_calls(workload, pairs, calls, direct=wrong_direct)) == 2
    assert len(check_calls(workload, pairs, [(0, ValueError("boom"))], direct=res_x2_direct)) == 1


def test_direct_surrogate_check_off_default_seed():
    workload, (f, g) = _pair("direct-skew", seed=5)
    result = route(workload)(f, g)
    assert check_calls(workload, [(f, g)], [(0, result)], direct=res_x2_direct) == []

    def wrong_direct(f, g, **kwargs):
        ref = res_x2_direct(f, g, **kwargs)
        return replace(ref, degree=ref.degree - 1)

    assert len(check_calls(workload, [(f, g)], [(0, result)], direct=wrong_direct)) == 1


def test_quiet_scaling_removes_a_machine_slowdown():
    # the machine runs 2x slower from the fourth entry on
    timeline = [(0, 100), (1, 50), (0, 100), (0, 200), (1, 100), (None, 2.0), (0, 200)]
    pairs, probes = quiet_scaled(timeline)
    assert pairs == {0: [100], 1: [50, 50]}
    assert probes == [1.0]
