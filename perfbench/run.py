"""Benchmark for the two elimination routes of `oreelim`.

    python3 perfbench/run.py --workload direct-skew --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Load model: one process, one thread, one call at a time -- a closed loop with
a single caller, `threads=1`.  The loop cycles through a seeded pool of
distinct pairs for `--seconds` seconds with warm caches, as a library user's
batch runs, re-timing a calibration pair on every third call so that timings
can be scaled to the machine's quietest moment (see `quiet_scaled`); set-up
is timed apart, cold, in fresh interpreters.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced pass
and prints the per-layer metrics.  The last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

from checks import check_calls, digest, load_digests  # noqa: E402
from spans import FIELD_OPS, SpanRecorder, count_field_calls, span_totals  # noqa: E402
from workloads import DEFAULT_SEED, POOL_SIZE, WORKLOADS, make_pairs, operands  # noqa: E402

SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
COLD_PROBES = 3  # fresh interpreters for field.extend_field.cold_ms
COUNT_PAIRS = 3  # pairs in the untimed field-call counting pass
MICRO_OPS = 2000  # operands per field-op microbench repetition
MICRO_REPS = 7
CAL_EVERY = 3  # every third call re-times the calibration pair
TAIL_PERCENTILE = 75  # the highest with >= 10 of the POOL_SIZE pairs beyond it

END_TO_END = {
    "pairs_per_s": "1/s",
    "pair_ms.p50": "ms",
    "pair_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, which total) for span-derived times;
# skewdet.triangularize.ms is inclusive of its ore_uni children, every other
# time is a self time.
SPAN_METRICS = {
    "skewdet.triangularize.ms": ("skewdet.triangularize", "total"),
    "skewdet.diag_product.ms": ("skewdet.diag_product", "self"),
    "ore_uni.mul.ms": ("ore_uni.mul", "self"),
    "ore_uni.mul.calls": ("ore_uni.mul", "calls"),
    "ore_uni.right_divmod.ms": ("ore_uni.right_divmod", "self"),
    "ore_uni.right_divmod.calls": ("ore_uni.right_divmod", "calls"),
    "resultant.sylvester.ms": ("resultant.sylvester", "self"),
    "modres.recover.ms": ("modres.recover", "self"),
    "modres.chain.ms": ("modres.chain", "self"),
    "modres.plan.ms": ("modres.plan", "self"),
    "modres.check_bad_eval.ms": ("modres.check_bad_eval", "self"),
    "modres.embed.ms": ("modres.embed", "self"),
    "modres.map_back.ms": ("modres.map_back", "self"),
}


def per_layer_units():
    units = {}
    for name in SPAN_METRICS:
        units[name] = "count" if name.endswith(".calls") else "ms"
    units.update(
        {
            "skewdet.addmul_ops": "count",
            "skewdet.swaps": "count",
            "modres.degree_bound": "count",
            "modres.work_degree": "count",
            "field.extend_field.cold_ms": "ms",
        }
    )
    for op in FIELD_OPS:
        units[f"field.{op}_ns"] = "ns"
    for side in ("base", "work"):
        for op in FIELD_OPS:
            units[f"field.{side}.{op}.calls"] = "count"
    units["trace.pair_ms"] = "ms"
    units["trace.overhead_ms"] = "ms"
    return units


# -- the program under test ------------------------------------------------------


def import_package():
    if not (SRC / "oreelim" / "__init__.py").is_file():
        raise SystemExit(f"error: package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def route(workload):
    """The timed entry point, looked up on its module at call time so the
    traced pass sees its wrapper."""
    from oreelim import modres, resultant

    if workload.route == "direct":
        return lambda f, g: resultant.res_x2_direct(f, g)
    return lambda f, g: modres.res_x2_modular(f, g)


def rings(workload):
    from oreelim import field_new, make_rings

    ctx = field_new(workload.p, workload.m)
    return ctx, make_rings(ctx, workload.e1, workload.e2)


# -- set-up, cold, in fresh interpreters --------------------------------------------


def setup_probe(workload, seed, trace):
    """Time field_new + make_rings (+ the first plan_modular) in this fresh
    interpreter, input generation excluded; print one JSON line."""
    from oreelim import modres

    recorder = SpanRecorder()
    if trace:
        recorder.install()
        recorder.active = True
    t0 = perf_counter()
    ctx, ring = rings(workload)
    elapsed = perf_counter() - t0
    f, g = make_pairs(workload, ring, seed, count=1)[0]
    if workload.route == "modular":
        t0 = perf_counter()
        modres.plan_modular(f, g)
        elapsed += perf_counter() - t0
    recorder.active = False
    cold = span_totals(recorder.spans).get("field.extend_field", (0, 0, 0))[1]
    print(json.dumps({"setup_s": elapsed, "extend_field_ms": cold / 1e6}))
    return 0


def run_probes(workload, seed, count, trace):
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed), "--trace", str(trace)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# -- the timed loop ---------------------------------------------------------------


class Batch:
    """Seeded pairs of one workload with the field set up and caches warm."""

    def __init__(self, workload, seed):
        from oreelim import plan_modular

        self.workload = workload
        self.seed = seed
        self.ctx, self.ring = rings(workload)
        self.pairs = make_pairs(workload, self.ring, seed)
        self.plan = plan_modular(*self.pairs[0]) if workload.route == "modular" else None
        self.call = route(workload)
        self.call(*self.pairs[0])  # warm lazily built caches (Frobenius images)

    @property
    def tri_ctx(self):
        """The field the route triangularizes over."""
        return self.ctx if self.plan is None else self.plan.work_ctx


def timed(call, f, g):
    t0 = perf_counter_ns()
    try:
        result = call(f, g)
    except Exception as exc:  # a raising pair is a failed pair, not a crash
        result = exc
    return perf_counter_ns() - t0, result


class Calls:
    """Every timed call of a run: (pair index, result) for the checks.  A
    repeat whose representative matches the pair's first result stores that
    first result, so memory does not grow with the run length."""

    def __init__(self):
        self.calls = []
        self._first = {}

    def record(self, idx, result):
        first = self._first.setdefault(idx, result)
        if first is not result and not isinstance(result, Exception):
            if not isinstance(first, Exception) and digest(first) == digest(result):
                result = first
        self.calls.append((idx, result))

    def __len__(self):
        return len(self.calls)


def check(batch, calls):
    from oreelim import res_x2_direct

    digests = load_digests(batch.workload.name) if batch.seed == DEFAULT_SEED else None
    return check_calls(batch.workload, batch.pairs, calls, digests=digests, direct=res_x2_direct)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-pct * len(ordered) // 100) - 1))
    return ordered[k]


def quiet_scaled(timeline):
    """Scale every timing of a run to the machine's quietest moment in it.

    `timeline` holds (key, value) in run order: key 0 is a call of the
    calibration pair, key k >= 1 a call of pool pair k, key None a set-up
    probe.  A timing is multiplied by floor / local, where floor is the
    fastest calibration call of the run and local the mean of the
    calibration calls just before and after it: both are the same pair on
    the same code path, so their ratio is the machine's slowdown at that
    moment.  Returns ({pair: scaled times}, scaled probes); the calibration
    pair's scaled time is the floor itself."""
    cal = [v for k, v in timeline if k == 0]
    floor = min(cal)
    after = [None] * len(timeline)
    nxt = None
    for pos in range(len(timeline) - 1, -1, -1):
        after[pos] = nxt
        if timeline[pos][0] == 0:
            nxt = timeline[pos][1]
    pairs, probes = {0: [floor]}, []
    before = None
    for pos, (key, value) in enumerate(timeline):
        if key == 0:
            before = value
            continue
        near = [c for c in (before, after[pos]) if c is not None]
        scaled = value * floor * len(near) / sum(near)
        if key is None:
            probes.append(scaled)
        else:
            pairs.setdefault(key, []).append(scaled)
    return pairs, probes


def run_untraced(workload, seed, seconds):
    """The timed loop: every third call re-times the calibration pair (pool
    pair 0), the others cycle through the rest of the pool.  The set-up
    probes run inside the measured window, spread evenly over it."""
    batch = Batch(workload, seed)
    record = Calls()
    timeline = []
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        probes = sum(1 for k, _ in timeline if k is None)
        if probes < SETUP_PROBES and elapsed >= probes * seconds / (SETUP_PROBES - 1):
            timeline += [(None, p["setup_s"]) for p in run_probes(workload, seed, 1, trace=0)]
            continue
        if elapsed >= seconds and record:
            break
        idx = 0 if i % CAL_EVERY == 0 else 1 + (i - 1 - i // CAL_EVERY) % (POOL_SIZE - 1)
        dt, result = timed(batch.call, *batch.pairs[idx])
        record.record(idx, result)
        timeline.append((idx, dt / 1e6))
        i += 1
    failures = check(batch, record.calls)
    scaled, setups = quiet_scaled(timeline)
    per_pair = [statistics.median(v) for v in scaled.values()]
    tail = percentile(per_pair, TAIL_PERCENTILE)
    raw = [v for k, v in timeline if k is not None]
    notes = [
        f"{len(record)} calls over {len(per_pair)} pairs, quiet floor of the "
        f"calibration pair {scaled[0][0]:.3f} ms; unscaled median call "
        f"{statistics.median(raw):.3f} ms",
        f"pair_ms.tail is p{TAIL_PERCENTILE} of {len(per_pair)} pairs "
        f"({sum(1 for v in per_pair if v > tail)} beyond it)",
        f"fail_rate = {len(failures) / len(record)} ({len(failures)}/{len(record)})",
        f"setup_s probes (scaled): {setups}",
    ]
    metrics = {
        "pairs_per_s": 1000 * len(per_pair) / sum(per_pair),
        "pair_ms.p50": statistics.median(per_pair),
        "pair_ms.tail": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, END_TO_END, len(record), failures, notes


# -- the traced pass -----------------------------------------------------------------


def field_microbench(ctx, seed):
    """ns per call of the public FieldCtx methods on seeded operands."""
    xs = operands(seed, ctx.q, MICRO_OPS)
    ys = xs[1:] + xs[:1]
    cases = {
        "add": lambda: [ctx.add(x, y) for x, y in zip(xs, ys)],
        "mul": lambda: [ctx.mul(x, y) for x, y in zip(xs, ys)],
        "inv": lambda: [ctx.inv(x) for x in xs],
        "frob": lambda: [ctx.frob(x, 1) for x in xs],
    }
    out = {}
    for op, case in cases.items():
        reps = []
        for _ in range(MICRO_REPS):
            t0 = perf_counter_ns()
            case()
            reps.append((perf_counter_ns() - t0) / MICRO_OPS)
        out[f"field.{op}_ns"] = statistics.median(reps)
    return out


def run_traced(workload, seed, seconds):
    cold = [p["extend_field_ms"] for p in run_probes(workload, seed, COLD_PROBES, trace=1)]
    batch = Batch(workload, seed)
    recorder = SpanRecorder()
    record = Calls()
    plain_ms, traced_ms, per_pair, failures = [], [], [], []
    # Half the run: the per-layer figures carry no bound, and the cold
    # probes, counting pass and microbench below take time of their own.
    deadline = perf_counter() + seconds / 2
    i = 0
    while perf_counter() < deadline or not record:
        idx = i % POOL_SIZE
        f, g = batch.pairs[idx]
        dt, plain = timed(batch.call, f, g)
        plain_ms.append(dt / 1e6)
        record.record(idx, plain)
        recorder.install()
        try:
            (dt, traced), spans = recorder.call("pair", timed, batch.call, f, g)
        finally:
            recorder.uninstall()
        traced_ms.append(dt / 1e6)
        if isinstance(plain, Exception) or isinstance(traced, Exception) or digest(plain) != digest(traced):
            failures.append(f"call {i} (pair {idx}): traced and untraced results differ")
        else:
            kinds = [type(op).__name__ for op in traced.op_log]
            per_pair.append((span_totals(spans), kinds.count("AddMulOp"), kinds.count("SwapSignedOp")))
        i += 1
    failures += check(batch, record.calls)

    metrics = {}
    for name, (span, kind) in SPAN_METRICS.items():
        col = {"self": 0, "total": 1, "calls": 2}[kind]
        scale = 1 if kind == "calls" else 1e6
        metrics[name] = statistics.median(
            [totals.get(span, (0, 0, 0))[col] / scale for totals, _, _ in per_pair] or [0]
        )
    metrics["skewdet.addmul_ops"] = statistics.median([a for _, a, _ in per_pair] or [0])
    metrics["skewdet.swaps"] = statistics.median([s for _, _, s in per_pair] or [0])
    metrics["modres.degree_bound"] = batch.plan.degree_bound if batch.plan else 0
    metrics["modres.work_degree"] = batch.plan.work_ctx.m if batch.plan else 0
    metrics["field.extend_field.cold_ms"] = statistics.median(cold)

    contexts = [("base", batch.ctx)]
    if batch.plan is not None:
        contexts.append(("work", batch.plan.work_ctx))
    counted = [
        count_field_calls(batch.call, batch.pairs[k], contexts) for k in range(COUNT_PAIRS)
    ]
    for side in ("base", "work"):
        for op in FIELD_OPS:
            metrics[f"field.{side}.{op}.calls"] = statistics.median(
                c.get((side, op), 0) for c in counted
            )
    metrics.update(field_microbench(batch.tri_ctx, seed))
    metrics["trace.pair_ms"] = statistics.median(traced_ms)
    metrics["trace.overhead_ms"] = metrics["trace.pair_ms"] - statistics.median(plain_ms)

    notes = [
        f"traced {len(traced_ms)} pairs; tracing overhead "
        f"{metrics['trace.overhead_ms']:.3f} ms per pair "
        f"(traced {metrics['trace.pair_ms']:.3f} ms, untraced {statistics.median(plain_ms):.3f} ms)",
        f"field microbench on {batch.tri_ctx.spec_string()} ({batch.tri_ctx.backend} backend)",
        f"fail_rate = {len(failures) / len(record)} ({len(failures)}/{len(record)})",
    ]
    if recorder.absent:
        notes.append("absent layers (reported as 0): " + ", ".join(recorder.absent))
    return metrics, per_layer_units(), len(record), failures, notes


# -- entry points ------------------------------------------------------------------


def run_one(workload, seed, seconds, trace):
    runner = run_traced if trace else run_untraced
    metrics, units, attempted, failures, notes = runner(workload, seed, seconds)
    for line in notes + failures[:20]:
        print(f"# {workload.name}: {line}")
    for name, unit in units.items():
        print(f"{workload.name} {name} = {metrics[name]} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_all(seed, seconds, trace):
    """Every workload, one after another, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} failed: {proc.stderr.strip()}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    return summary


def record_digests(seed):
    """Write digests.json from the current package: one digest per pool pair
    of every workload at `seed`."""
    out = {}
    for name, workload in WORKLOADS.items():
        batch = Batch(workload, seed)
        out[name] = [digest(batch.call(f, g)) for f, g in batch.pairs]
    with open(HERE / "digests.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="rewrite digests.json from the current package at --seed",
    )
    args = parser.parse_args(argv)
    import_package()
    if args.record_digests:
        return record_digests(args.seed)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    elif args.setup_probe:
        return setup_probe(WORKLOADS[args.workload], args.seed, args.trace)
    else:
        result = run_one(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
