#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for sympdec.

Usage, from the root of a checkout:

    python3 bench_e2e/run.py                                  # all workloads
    python3 bench_e2e/run.py --workload queries --seed 3 --seconds 20
    python3 bench_e2e/run.py --workload verify-edge --trace 1 # per-layer run

One process, one client, closed loop: the next operation starts when the
previous one has returned.  Operations call ``sympdec.cli.main(argv)``
in-process with stdout captured, and every output is checked (see
workloads.py).  The package is imported from ``src/`` of the checkout the
script sits in; without it the run stops with exit code 1.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json, or with ``--trace 1`` its ``per_layer`` metrics.  The full
result, with the environment and the stdout digest, goes to
``bench_e2e/results/``.  See README.md there for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from workloads import KNOWN_DEFECT_PROBES, WORKLOADS, operations  # noqa: E402

SETUP_REPS = 15
HOST_PROBE_EVERY_S = 0.5
# typical time of HostSpeed.reference on the 2-vCPU VM (Python 3.11.7) the
# bounds were set on; times are reported as if the loop had taken this long
REFERENCE_S = 0.0125
# the package's time grows as the loop's time to this power: the slope of
# log(operation time) on log(loop time) over about 50 runs of 30 s on that
# VM, which ranged from 0.3 to 1.1 between sets of runs
HOST_SENSITIVITY = 0.7
MICRO_REPS = 3
MICRO_SIZES = (8, 16, 32, 64)
# entry magnitudes of benchmarks/bench_matmul.py: the 64-bit fast path and
# the arbitrary-precision object path of the compiled kernel
MICRO_MAGNITUDES = (("small", 40), ("big", 1 << 72))
LAYERS = ("kernels", "matrix", "groups", "intmatrix", "induced", "homotopy", "lifting",
          "suites", "cli", "bench")
SUITE_NAMES = ("closure", "lemmas", "mixed-product", "center", "formulas", "bezout", "J-iso")


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 1."""


# -- set-up --------------------------------------------------------------------

def _package_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "sympdec" or k.startswith("sympdec.")}


def _fresh_cli():
    """Drop the package from sys.modules and import its CLI again."""
    for name in _package_modules():
        del sys.modules[name]
    return importlib.import_module("sympdec.cli")


class SetUp:
    """Times the set-up of the package: a fresh import of ``sympdec.cli``
    (all layers) plus parsing the first operation's arguments.

    The first import gives the CLI the loop uses.  The later ones are spread
    over the run, so that their median sees the same host as the
    operations do; each imports a second copy of the package and then puts
    the loop's modules back, so whatever the loop's copy has warmed up
    stays.
    """

    def __init__(self, first_argv, reps: int, seconds: float):
        if not (SRC / "sympdec" / "__init__.py").is_file():
            raise BenchError(f"no sympdec package under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.argv = list(first_argv)
        self.reps = reps
        self.every = seconds / reps
        self.times: list[float] = []
        self.cli = self._import()
        if Path(self.cli.__file__).resolve().parent != SRC / "sympdec":
            raise BenchError(f"imported sympdec from {self.cli.__file__}, not from {SRC}")

    def _import(self):
        gc.collect()    # garbage from earlier imports would be collected inside the timing
        start = time.perf_counter()
        cli = _fresh_cli()
        cli.build_parser().parse_args(self.argv)
        self.times.append(time.perf_counter() - start)
        return cli

    def between_ops(self, elapsed: float) -> None:
        if len(self.times) >= self.reps or elapsed < len(self.times) * self.every:
            return
        saved = _package_modules()
        try:
            self._import()
        finally:
            for name in _package_modules():
                del sys.modules[name]
            sys.modules.update(saved)

    def median(self) -> float:
        return statistics.median(self.times)


def environment(seed: int) -> dict:
    from sympdec.kernels import backend
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernel_backend": backend(),
        "seed": seed,
        "commit": _commit(),
    }
    try:
        __import__("sympdec._speedups")
    except ImportError as exc:
        env["speedups_import_error"] = str(exc)
    return env


def _commit() -> str:
    """HEAD of the checkout's own .git, if it has one; nothing outside is read."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- the closed loop -----------------------------------------------------------

class Loop:
    """Runs operations one after another and keeps what the metrics need."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.times: list[float] = []
        self.failed = 0
        self.unexpected: list[dict] = []
        self.digest = hashlib.sha256()
        self.wall = 0.0

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        crash = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:   # argparse usage errors exit 2
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:           # a traceback is a failed operation
                rc, crash = None, traceback.format_exc(limit=3)
        return rc, out.getvalue(), time.perf_counter() - start, crash

    def run(self, op) -> None:
        tr = self.tracer
        if tr is not None:
            tr.open("cli")
        rc, out, elapsed, crash = self.call(op.argv)
        if tr is not None:
            tr.close()
            tr.open("bench.check")
        ok = op.check(rc, out)
        if tr is not None:
            tr.close()
        self.times.append(elapsed)
        self.digest.update(out.encode())
        if ok:
            return
        self.failed += 1
        if len(self.unexpected) < 20:
            self.unexpected.append({"argv": list(op.argv), "exit": rc, "stdout": out[:500],
                                    "traceback": crash})
        else:
            self.unexpected.append({"argv": list(op.argv), "exit": rc})

    def run_for(self, ops, seconds: float, between_ops=None) -> None:
        start = time.perf_counter()
        while (elapsed := time.perf_counter() - start) < seconds:
            if between_ops is not None:
                between_ops(elapsed)
            self.run(next(ops))
        self.wall = time.perf_counter() - start

    def run_all(self, ops) -> None:
        start = time.perf_counter()
        for op in ops:
            self.run(op)
        self.wall = time.perf_counter() - start

    def ops_per_s(self) -> float:
        return len(self.times) / sum(self.times)


def probe_known_defects(cli) -> dict:
    """Runs every known-defect input once, untimed, with its usual check."""
    loop = Loop(cli)
    found = {}
    for name, what, probes in KNOWN_DEFECT_PROBES:
        failing = []
        for op in probes:
            rc, out, _, _ = loop.call(op.argv)
            if not op.check(rc, out):
                failing.append(list(op.argv))
        found[name] = {"what": what, "inputs": len(probes), "failing": failing}
    return found


# -- metrics -------------------------------------------------------------------

class HostSpeed:
    """Times a fixed pure-Python loop between operations.

    The host is a shared VM whose speed swings by a factor of up to 1.7
    within minutes.  The package's operations slow down with this loop,
    but by less: their time grows about as the loop's time to the power
    HOST_SENSITIVITY.  Dividing by that slowdown takes most of the swing
    out of the reported times (README.md has the measured spreads).  The
    loop is the benchmark's own code and runs with the garbage collector
    off, so the package cannot change its time.
    """

    def __init__(self, every: float):
        self.every = every
        self.times: list[float] = []

    @staticmethod
    def reference() -> int:
        acc, table = 0, {}
        for i in range(40000):
            a = (i * 2654435761) % 1000003
            key = (a, i & 7, a >> 3)
            table[key] = acc
            acc = (acc + a * key[1]) % 998244353
            if len(table) > 512:
                table.clear()
        return acc

    def between_ops(self, elapsed: float) -> None:
        if elapsed < len(self.times) * self.every:
            return
        gc.disable()
        try:
            start = time.perf_counter()
            self.reference()
            self.times.append(time.perf_counter() - start)
        finally:
            gc.enable()

    def slowdown(self) -> float:
        """Expected slowdown of the package on this host; above 1 when slow."""
        return (statistics.median(self.times) / REFERENCE_S) ** HOST_SENSITIVITY


def end_to_end(loop: Loop, setup_s: float, host: HostSpeed) -> dict:
    n = len(loop.times)
    slow = host.slowdown()
    p50_ms = statistics.median(loop.times) * 1e3
    metrics = {
        "setup_s": (setup_s / slow, "s"),
        "ops_per_s": (loop.ops_per_s() * slow, "1/s"),
        "op_ms_p50": (p50_ms / slow, "ms"),
        "raw_setup_s": (setup_s, "s"),
        "raw_ops_per_s": (loop.ops_per_s(), "1/s"),
        "raw_op_ms_p50": (p50_ms, "ms"),
        "host_reference_ms": (statistics.median(host.times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_ratio": (loop.failed / n, "ratio"),
        "op_samples": (n, "count"),
    }
    # a percentile is reported only with at least ten samples beyond it
    if n >= 100:
        metrics["op_ms_p90"] = (statistics.quantiles(loop.times, n=10)[8] * 1e3 / slow, "ms")
    return metrics


def kernel_micro(seed: int) -> tuple[dict, dict]:
    """The bench_matmul.py cases on every kernel backend that imports."""
    import sympdec._kernels_py as py_kernel
    backends = {"python": py_kernel.matmul_num}
    try:
        from sympdec import _speedups
        backends["compiled"] = _speedups.matmul_num
    except ImportError:
        pass
    rng = random.Random(f"bench_e2e:micro:{seed}")
    metrics, disagree = {}, {}
    for n in MICRO_SIZES:
        for label, mag in MICRO_MAGNITUDES:
            a = [rng.randint(-mag, mag) for _ in range(n * n * 4)]
            b = [rng.randint(-mag, mag) for _ in range(n * n * 4)]
            results = {}
            for name, matmul in backends.items():
                times = []
                for _ in range(MICRO_REPS):
                    start = time.perf_counter()
                    results[name] = matmul(a, b, n, n, n)
                    times.append(time.perf_counter() - start)
                metrics[f"kernels.micro.{n}.{label}.{name}_ms"] = (
                    statistics.median(times) * 1e3, "ms")
            if any(r != results["python"] for r in results.values()):
                disagree[f"{n}.{label}"] = sorted(results)
    return metrics, disagree


def per_layer(tr, wall: float, untraced_rate: float, traced_rate: float) -> dict:
    calls, busy, own = tr.calls, tr.busy, tr.self_time
    count = lambda v: (v, "count")
    secs = lambda v: (v, "s")
    m = {
        "kernels.calls": count(calls["kernels"]),
        "kernels.busy_s": secs(busy["kernels"]),
        "kernels.entry_mults": count(tr.counts["kernels.entry_mults"]),
        "kernels.mults_per_s": (tr.counts["kernels.entry_mults"] / busy["kernels"]
                                if busy["kernels"] else 0.0, "1/s"),
        "kernels.max_num_bits": (tr.maxima["kernels.max_num_bits"], "bits"),
        "matrix.matmul.calls": count(calls["matrix.matmul"]),
        "matrix.matmul.self_s": secs(own["matrix.matmul"]),
        "matrix.kron.calls": count(calls["matrix.kron"]),
        "matrix.kron.busy_s": secs(busy["matrix.kron"]),
        "matrix.block.calls": count(calls["matrix.block"]),
        "matrix.block.busy_s": secs(busy["matrix.block"]),
        "matrix.from_rows.busy_s": secs(busy["matrix.from_rows"]),
        "groups.random_so.attempts_per_call": (
            tr.counts["groups.random_so.attempts"] / calls["groups.random_so"]
            if calls["groups.random_so"] else 0.0, "ratio"),
        "groups.tensor_sp_sp.busy_s": secs(busy["groups.tensor_sp_sp"]),
        "groups.change_of_basis_p.busy_s": secs(busy["groups.change_of_basis_p"]),
        "intmatrix.snf.max_dim": count(tr.maxima["intmatrix.snf.max_dim"]),
        "induced.homs_built": count(calls["induced.hom"]),
        "induced.hom.busy_s": secs(busy["induced.hom"]),
        "induced.distinct_homs": count(len(tr.hom_keys)),
        "induced.distinct_ratio": (len(tr.hom_keys) / calls["induced.hom"]
                                   if calls["induced.hom"] else 0.0, "ratio"),
        "induced.iso.calls": count(calls["induced.iso"]),
        "induced.iso.self_s": secs(own["induced.iso"]),
        "homotopy.lookups": count(calls["homotopy"]),
        "homotopy.busy_s": secs(busy["homotopy"]),
        "lifting.connectivity.calls": count(calls["lifting.connectivity"]),
        "lifting.connectivity.self_s": secs(own["lifting.connectivity"]),
        "lifting.bezout.calls": count(calls["lifting.bezout"]),
    }
    for name in ("matrix.det", "matrix.inverse", "intmatrix.snf", "groups.random_so",
                 "groups.random_sp", "groups.membership"):
        m[f"{name}.calls"] = count(calls[name])
        m[f"{name}.busy_s"] = secs(busy[name])
    for name in ("matrix.det", "matrix.inverse"):
        m[f"{name}.max_n"] = count(tr.maxima[f"{name}.max_n"])
    for suite in SUITE_NAMES:
        m[f"suites.{suite}.s"] = secs(busy[f"suites.{suite}"])
        m[f"suites.{suite}.cases"] = count(tr.counts[f"suites.{suite}.cases"])
    accounted = 0.0
    for layer in LAYERS:
        t = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        m[f"{layer}.self_s"] = secs(t)
        accounted += t
    m["trace.wall_s"] = secs(wall)
    m["trace.accounted_share"] = (accounted / wall, "ratio")
    m["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    m["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    m["trace.overhead"] = (untraced_rate / traced_rate - 1, "ratio")
    m["trace.spans"] = count(len(tr.start))
    return m


# -- one workload ----------------------------------------------------------------

def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    ops = operations(workload, seed)
    first = next(ops)
    ops = itertools.chain([first], ops)
    setup = SetUp(first.argv, SETUP_REPS, seconds)
    cli = setup.cli
    env = environment(seed)
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env}
    spans_file = None
    earlier_unexpected = []
    if not trace:
        loop = Loop(cli)
        host = HostSpeed(HOST_PROBE_EVERY_S)

        def between_ops(elapsed):
            setup.between_ops(elapsed)
            host.between_ops(elapsed)
        loop.run_for(ops, seconds, between_ops)
        metrics = end_to_end(loop, setup.median(), host)
        result["known_defects"] = probe_known_defects(cli)
        declared = _declared("end_to_end")
    else:
        import spans as tracing
        # the same operations run untraced, then traced, each phase on a fresh
        # import so that neither starts warm; the rate ratio is the tracing
        # overhead
        plain = Loop(cli)
        done = []
        plain.run_for((done.append(op) or op for op in ops), seconds / 2)
        earlier_unexpected = plain.unexpected
        cli = _fresh_cli()
        tracer = tracing.Tracer()
        undo, result["unpatched"] = tracing.install(tracer)
        try:
            loop = Loop(cli, tracer)
            loop.run_all(done)
        finally:
            tracing.uninstall(undo)
        result["known_defects"] = probe_known_defects(cli)
        metrics = per_layer(tracer, loop.wall, plain.ops_per_s(), loop.ops_per_s())
        micro, disagree = kernel_micro(seed)
        metrics.update(micro)
        result["backend_disagreement"] = disagree
        declared = _declared("per_layer")
        RESULTS.mkdir(exist_ok=True)
        spans_file = RESULTS / f"{workload}-seed{seed}.spans.json"
        tracer.write(spans_file)
    missing = [k for k, unit in declared.items()
               if k not in metrics or metrics[k][1] != unit]
    if missing:
        raise BenchError(f"declared metrics not measured or with another unit: {missing}")
    unexpected = earlier_unexpected + loop.unexpected
    correct = not unexpected and not result.get("backend_disagreement")
    result.update({
        "correct": correct,
        "attempted": len(loop.times),
        "failed": loop.failed,
        "failed_ratio": loop.failed / len(loop.times),
        "unexpected_failures": unexpected,
        "stdout_sha256": loop.digest.hexdigest(),
        "op_ms": [t * 1e3 for t in loop.times],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")

    for k, (v, unit) in metrics.items():
        print(f"{workload:15} {k:40} {v:>16.6g} {unit}")
    print(f"{workload:15} {'stdout_sha256':40} {loop.digest.hexdigest()}")
    for k, v in result["known_defects"].items():
        state = (f"fails on {len(v['failing'])} of {v['inputs']} inputs" if v["failing"]
                 else "no longer reproduced")
        print(f"{workload:15} known defect {k}: {state} ({v['what']})")
    for f in unexpected[:5]:
        print(f"{workload:15} UNEXPECTED FAILURE: {json.dumps(f)}")
    print(f"{workload:15} results in {out.relative_to(ROOT)}"
          + (f", spans in {spans_file.relative_to(ROOT)}" if spans_file else ""))
    print(json.dumps({
        "correct": correct,
        "attempted": len(loop.times),
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": unit} for k, unit in declared.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is the workload's own."""
    summary = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        summary[workload] = json.loads(lines[-1])
    print(json.dumps({"workloads": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
