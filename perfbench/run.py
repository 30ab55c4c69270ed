"""End-to-end benchmark of the `nlo` command line, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

Run from the root of a checkout; the library is imported from `src/`.
Each op is one `nlo.cli.main(argv)` call with stdout captured, so
interpreter start-up does not swamp ops that take milliseconds.  The
process is single-threaded and starts no other process.

A memory phase runs first and sets `peak_rss_mib`.  The timed phase then
runs whole passes of the workload until `--seconds` have passed and at
least 100 ops are done; each op runs on the frozen reference `refnlo`
and then on `nlo`, and the reference's time gives the machine's speed at
that moment (see `end_to_end`).  Set-up (import afresh, build the seeded
inputs, one untimed warm-up op) is timed the same way before each of the
first passes.  Every `nlo` op's output is checked by an oracle; a failed
op raised, exited with an unexpected code or gave a wrong answer.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` every pass runs once untraced and once traced (see tracer.py);
the last line reports per-layer metrics from the traced passes,
normalized per op, and the tracing overhead, and the spans are written
to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, Workload, make  # noqa: E402

SETUP_REPEATS = 9
MIN_OPS = 100  # at least 10 latency samples beyond p90
MAX_REPORTED_ERRORS = 20

# Reported times are in reference seconds: how long the op would take on a
# machine on which the frozen reference (refnlo/, a copy of src/nlo taken
# when the benchmark was defined) spends these many seconds in one pass of
# the workload, or in one set-up: about its time on a 2-vCPU Xeon VM when
# no other tenant of the host is busy.
REFERENCE_PASS_S = {
    "certify_verify": 0.50,
    "surgery_homology": 1.10,
    "alexander_grid": 0.60,
    "finite_quotients": 1.35,
}
REFERENCE_SETUP_S = {
    "certify_verify": 0.040,
    "surgery_homology": 0.036,
    "alexander_grid": 0.035,
    "finite_quotients": 0.032,
}


def import_fresh(name: str, parent: Path):
    """Import package ``name`` afresh from the directory ``parent``."""
    if not (parent / name / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no {name} package under {parent}")
    for loaded in [n for n in sys.modules if n == name or n.startswith(name + ".")]:
        del sys.modules[loaded]
    if str(parent) not in sys.path:
        sys.path.insert(0, str(parent))
    package = importlib.import_module(name)
    importlib.import_module(name + ".cli")
    if Path(package.__file__).resolve().parent != parent / name:
        raise SystemExit(f"perfbench: imported {name} from {package.__file__}, not {parent}")
    return package


def import_nlo():
    return import_fresh("nlo", SRC)


def invoke(main, op, stdin: str) -> tuple[int, str, float]:
    """Run one command line in-process; returns (exit code, stdout, seconds)."""
    captured = io.StringIO()
    sys.stdin = io.StringIO(stdin if op.feed else "")
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            rc = main(list(op.argv))
            latency = time.perf_counter() - start
    finally:
        sys.stdin = sys.__stdin__
    return rc, captured.getvalue(), latency


class Run:
    """Ops attempted and failed, and oracle tallies, of one process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0
        self.tally: Counter[str] = Counter()

    def op(self, nlo, op, stdin: str, latencies: list[float]) -> str:
        """Run and check one op; returns its stdout."""
        start = time.perf_counter()
        try:
            rc, stdout, latency = invoke(nlo.cli.main, op, stdin)
            error = op.check(rc, stdout, self.tally)
        except Exception as exc:  # a raising op is a failed op, not a crash
            latency, stdout = time.perf_counter() - start, ""
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(latency)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_REPORTED_ERRORS:
                self.errors.append(f"nlo {' '.join(op.argv)}: {error}")
        return stdout

    def ops(self, nlo, ops, latencies: list[float]) -> None:
        stdout = ""
        for op in ops:
            stdout = self.op(nlo, op, stdout, latencies)

    def one_pass(self, nlo, ops) -> float:
        start = time.perf_counter()
        self.ops(nlo, ops, [])
        return time.perf_counter() - start

    def paired(self, ref, nlo, ops, ref_lat: list[float], cur_lat: list[float]) -> None:
        """Each op on the frozen reference, then on `nlo`, back to back."""
        ref_out = cur_out = ""
        for op in ops:
            _, ref_out, latency = invoke(ref.cli.main, op, ref_out)
            ref_lat.append(latency)
            cur_out = self.op(nlo, op, cur_out, cur_lat)


def setup(args, run: Run):
    """Import `nlo` afresh, build the seeded inputs, run the warm-up op."""
    nlo = import_nlo()
    workload = make(args.workload, args.seed, args.size)
    run.ops(nlo, workload.warmup, [])
    return nlo, workload


def setup_reference(args):
    """The same set-up for the frozen reference, unchecked."""
    ref = import_fresh("refnlo", HERE)
    stdout = ""
    for op in make(args.workload, args.seed, args.size).warmup:
        stdout = invoke(ref.cli.main, op, stdout)[1]
    return ref


def percentiles(latencies: list[float]) -> tuple[float, float]:
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return cuts[4], cuts[8]


def end_to_end(args, run: Run, lines: list[str]) -> dict:
    """Memory phase, then paired passes until ``--seconds`` are up and
    MIN_OPS ops have run (or four times ``--seconds`` passed).

    The memory phase runs the workload's memory ops on `nlo` alone and
    reads `ru_maxrss`.  In the paired passes every op runs on the frozen
    reference and then on `nlo`; the first SETUP_REPEATS passes are each
    preceded by a reference set-up and an `nlo` set-up.  Other tenants of
    the machine slow it down by up to half, switching within a second, so
    a pass's slowdown is its reference time over REFERENCE_PASS_S, and
    `nlo` pass times are divided by it.  Set-up is timed the same way
    against REFERENCE_SETUP_S.
    """
    start = time.perf_counter()
    nlo, workload = setup(args, run)
    run.ops(nlo, workload.memory, [])
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ref_setups, cur_setups, ref_lat, cur_lat = [], [], [], []
    min_ops = MIN_OPS if args.size == "full" else 1
    while True:
        if len(cur_setups) < SETUP_REPEATS:
            t0 = time.perf_counter()
            ref = setup_reference(args)
            t1 = time.perf_counter()
            nlo, workload = setup(args, run)
            ref_setups.append(t1 - t0)
            cur_setups.append(time.perf_counter() - t1)
        ops = workload.passes[len(cur_lat) % len(workload.passes)]
        ref_lat.append([])
        cur_lat.append([])
        run.paired(ref, nlo, ops, ref_lat[-1], cur_lat[-1])
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (
            sum(map(len, cur_lat)) >= min_ops or elapsed >= 4 * args.seconds
        ):
            break

    slowdown = [sum(r) / REFERENCE_PASS_S[args.workload] for r in ref_lat]
    passes = [sum(c) / f for c, f in zip(cur_lat, slowdown)]
    wall_s = statistics.median(passes)
    ops_per_s = statistics.median(len(c) / t for c, t in zip(cur_lat, passes))
    # An op's latency is its paired ratio times the reference's latency for
    # that op at nominal speed, averaged over the op's runs in this process.
    slot = lambda k, pos: (k % len(workload.passes), pos)  # noqa: E731
    nominal: dict[tuple[int, int], list[float]] = {}
    for k, (refs, f) in enumerate(zip(ref_lat, slowdown)):
        for pos, ref_s in enumerate(refs):
            nominal.setdefault(slot(k, pos), []).append(ref_s / f)
    scaled = [
        cur_s / ref_s * statistics.fmean(nominal[slot(k, pos)])
        for k, (refs, curs) in enumerate(zip(ref_lat, cur_lat))
        for pos, (ref_s, cur_s) in enumerate(zip(refs, curs))
    ]
    p50, p90 = percentiles(scaled)
    beyond = sum(1 for x in scaled if x > p90)
    setup_s = REFERENCE_SETUP_S[args.workload] * statistics.median(
        c / r for c, r in zip(cur_setups, ref_setups))
    lines += [
        f"setup_s       {setup_s:.6f} s   (median of {len(cur_setups)} set-ups; raw "
        f"{statistics.median(cur_setups):.6f} s, reference {statistics.median(ref_setups):.6f} s)",
        f"wall_s        {wall_s:.6f} s   (median of {len(passes)} passes of "
        f"{min(map(len, cur_lat))}-{max(map(len, cur_lat))} ops; machine slowdown "
        f"{min(slowdown):.3f}-{max(slowdown):.3f}, median {statistics.median(slowdown):.3f}; "
        f"raw median {statistics.median(map(sum, cur_lat)):.6f} s)",
        f"ops_per_s     {ops_per_s:.3f} 1/s",
        f"op_ms.p50     {p50 * 1e3:.4f} ms  ({len(scaled)} samples)",
        f"op_ms.p90     {p90 * 1e3:.4f} ms  ({beyond} samples beyond)",
        f"peak_rss_mib  {peak_rss_mib:.1f} MiB",
    ]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_ms.p50": (p50 * 1e3, "ms"),
        "op_ms.p90": (p90 * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(nlo, workload: Workload, args, run: Run, lines: list[str]) -> dict:
    """Each pass runs untraced, then traced; the tracing overhead is the
    median of the paired differences."""
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        ops = workload.passes[len(traced) % len(workload.passes)]
        plain.append(run.one_pass(nlo, ops))
        tracer.install(nlo)
        try:
            traced.append(run.one_pass(nlo, ops))
        finally:
            tracer.uninstall()
    summary = tracer.summarize()
    span_file = SPAN_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.bin"
    tracer.write(span_file)

    ops = summary["ops"]
    get = lambda key: summary.get(key, 0)  # noqa: E731
    per_op = lambda key: _ratio(get(key), ops)  # noqa: E731
    metrics: dict[str, tuple[float, str]] = {}
    for module in ("words", "presentation", "certificates", "families", "homology",
                   "alexander", "cosets", "serialize", "cli"):
        metrics[f"{module}.self_s"] = (per_op(f"{module}.self_s"), "s/op")
    for name in ("presentation.one_step_to", "certificates.certify",
                 "certificates.verify_certificate", "families.surgery_presentation",
                 "homology.h1", "alexander.alexander_polynomial", "cosets.todd_coxeter"):
        metrics[f"{name}.busy_s"] = (per_op(f"{name}.busy_s"), "s/op")
    for name in ("words.mul.calls", "words.letters_unrolled",
                 "presentation.apply_relation.calls", "families.surgery_relator_letters",
                 "alexander.alexander_polynomial.calls", "alexander.fox_terms",
                 "cosets.todd_coxeter.calls", "cosets.cosets_live"):
        metrics[name] = (per_op(name), "count/op")
    metrics["presentation.one_step_to.hit_ratio"] = (
        _ratio(get("presentation.one_step_to.hits"), get("presentation.one_step_to.tries")),
        "ratio",
    )
    metrics["cosets.capped_ratio"] = (
        _ratio(get("cosets.order.capped"), get("cosets.order.enumerations")), "ratio")
    metrics["cosets.commutation.complete_ratio"] = (
        _ratio(get("cosets.commutation.complete"), get("cosets.commutation.enumerations")),
        "ratio",
    )
    metrics["cosets.commutation.vacuous"] = (
        _ratio(get("cosets.commutation.vacuous_batteries"), get("cosets.commutation.batteries")),
        "ratio",
    )
    overhead = statistics.median(t - p for t, p in zip(traced, plain))
    untraced = statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    lines += [
        f"traced {ops} ops in {len(traced)} passes, {len(tracer)} spans -> {span_file}",
        f"tracing overhead {overhead:.6f} s per pass "
        f"({_ratio(overhead, untraced):.1%} of the untraced {untraced:.6f} s)",
    ]
    lines += [f"{name:40s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)

    run = Run()
    lines = [f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}"]
    if args.trace:
        metrics = per_layer(*setup(args, run), args, run, lines)
    else:
        metrics = end_to_end(args, run, lines)
    lines.append(
        f"error_rate    {_ratio(run.failed, run.attempted):.6f}  "
        f"({run.failed} of {run.attempted} ops failed)"
    )
    if run.tally:
        lines.append("oracle tallies: " + ", ".join(f"{k} {v}" for k, v in sorted(run.tally.items())))
    lines += [f"FAILED {e}" for e in run.errors]
    print("\n".join(lines))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
