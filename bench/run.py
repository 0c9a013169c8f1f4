#!/usr/bin/env python3
"""rotalg benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports rotalg from src/ and the
exponent oracle from tests/).  One closed-loop caller: operations run back
to back in this process, each a fresh ``rotalg.cli.main(argv)`` call (or a
direct ``sandbox.truncated_norm`` call), so every operation builds its own
Angle.  The operation list is run in whole rounds for S seconds; outputs
are checked after the timed rounds.  Times are scaled to a reference host
speed by a fixed kernel run before every operation (see calibrate.py).
The last line of stdout is one JSON object with correct/attempted/failed
and the metrics: the end-to-end ones with --trace 0, the per-layer ones
(from one extra traced round) with --trace 1.
"""
import os

# one BLAS thread (at most nproc), fixed before numpy can be imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ROTALG_DEFAULT_ANGLE", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 7
PROBE_KERNELS = 7
TAIL_BEYOND = 10


def _use_sources() -> None:
    if not (ROOT / "src" / "rotalg" / "cli.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        sys.exit(f"bench: no rotalg sources (src/rotalg, tests/oracles.py) under {ROOT}")
    sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]


def execute(op):
    """Run one operation; returns (exit code, norm value or None)."""
    if op["kind"] == "cli":
        from rotalg import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(op["argv"])
        return code, None
    from rotalg import angle, sandbox
    from workloads import GOLDEN
    el = sandbox.element_from_json(angle.Angle.from_json(GOLDEN), op["element"])
    return 0, sandbox.truncated_norm(el, op["radius"])


def probe(workload: str, run_dir: Path) -> None:
    """Set-up in this fresh interpreter: import rotalg.cli, then the
    workload's warm-up operations.  Prints the seconds it took and, taken
    after it, the median time of the python calibration kernel."""
    import calibrate
    import workloads
    ops = workloads.warmup(workload, run_dir)
    t0 = time.perf_counter()
    import rotalg.cli  # noqa: F401
    for op in ops:
        execute(op)
    took = time.perf_counter() - t0
    kernel = statistics.median(calibrate.kernel_time("python") for _ in range(PROBE_KERNELS))
    print(repr(took), repr(kernel))


def measure_setup(workload: str, run_dir: Path) -> float:
    """Median over fresh interpreters of the set-up time, each scaled to
    the reference speed by the kernel time measured right after it."""
    import calibrate
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               "--workload", workload, "--run-dir", str(run_dir)],
                              capture_output=True, text=True, timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        took, kernel = map(float, proc.stdout.strip().splitlines()[-1].split())
        times.append(took * calibrate.REF["python"] / kernel)
    return statistics.median(times)


class Run:
    """Op outcomes across rounds; each distinct output is checked once."""

    def __init__(self, ops, run_dir: Path, kernel: str):
        self.ops = ops
        self.dir = run_dir
        self.kernel = kernel
        self.times = {op["id"]: [] for op in ops}   # scaled seconds
        self.outcomes = []            # (op id, exit code, output key)
        self.outputs = {}             # (op id, key) -> output
        self.first_norm = {}          # (element, radius) -> value of the first round
        self.report_bytes = 0
        self._check_files = 0

    def round(self, tracer=None) -> tuple[float, float]:
        """Runs every operation once; returns (wall seconds, the sum of the
        operations' scaled seconds)."""
        import calibrate
        gc.collect()
        results, times, kernels = [], [], []
        t0 = time.perf_counter()
        for op in self.ops:
            kernels.append(calibrate.kernel_time(self.kernel))
            if tracer is not None:
                tracer.begin_op(op["id"], op["verb"])
            start = time.perf_counter()
            try:
                code, value = execute(op)
            except (Exception, SystemExit) as exc:  # a traceback is a failed operation
                code, value = repr(exc), None
            finally:
                times.append(time.perf_counter() - start)
                if tracer is not None:
                    tracer.end_op()
            results.append((op, code, value))
        kernels.append(calibrate.kernel_time(self.kernel))
        wall = time.perf_counter() - t0
        scaled = calibrate.scaled(times, kernels, self.kernel)
        self.report_bytes = 0
        for (op, code, value), dt in zip(results, scaled):
            if tracer is None:
                self.times[op["id"]].append(dt)
            self.outcomes.append((op["id"], code, self._keep(op, value)))
        return wall, sum(scaled)

    def _keep(self, op, value):
        if op["kind"] == "norm":
            key = value
            self.first_norm.setdefault((op["check"]["element"], op["radius"]), value)
        else:
            path = Path(op["out"])
            data = path.read_bytes() if path.is_file() else b""
            path.unlink(missing_ok=True)
            self.report_bytes += len(data)
            key = hashlib.sha256(data).hexdigest()
            value = data.decode()
        self.outputs.setdefault((op["id"], key), value)
        return key

    # -- the check context ---------------------------------------------------

    def write(self, doc) -> str:
        self._check_files += 1
        path = self.dir / "check" / f"{self._check_files:03d}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc))
        return str(path)

    def rerun(self, argv):
        """Run the program again for a property check (outside any timing)."""
        from rotalg import cli
        self._check_files += 1
        out = self.dir / "check" / f"{self._check_files:03d}.out.json"
        out.parent.mkdir(exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([str(a) for a in argv] + ["-o", str(out)])
        return code, (json.loads(out.read_text()) if out.is_file() else None)

    def norm_radii(self, element):
        return [r for e, r in self.first_norm if e == element]

    def norm_value(self, element, radius):
        return self.first_norm[(element, radius)]

    def verify(self) -> tuple[int, list]:
        """(failed count, reasons); every outcome of every round counts."""
        import checks
        by_id = {op["id"]: op for op in self.ops}
        verdicts, reasons, failed = {}, [], 0
        for op_id, code, key in self.outcomes:
            op = by_id[op_id]
            if (op_id, code, key) not in verdicts:
                if code != op.get("expect_exit", 0):
                    why = f"exit {code}, expected {op.get('expect_exit', 0)}"
                else:
                    out = self.outputs[(op_id, key)]
                    try:
                        if op["kind"] == "cli" and op["verb"] != "plot":
                            out = json.loads(out)
                        why = checks.check(op, out, self)
                    except (ValueError, KeyError, TypeError, IndexError) as exc:
                        why = f"malformed output: {exc!r}"
                verdicts[(op_id, code, key)] = why
                if why:
                    reasons.append(f"op {op_id} ({' '.join(map(str, op.get('argv', [op['verb']])))}): {why}")
            failed += verdicts[(op_id, code, key)] is not None
        return failed, reasons


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--run-dir", help=argparse.SUPPRESS)
    args = ap.parse_args()
    _use_sources()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        probe(args.workload, Path(args.run_dir))
        return 0

    import calibrate
    run_dir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, run_dir)
        warm = workloads.warmup(args.workload, run_dir)
        setup_s = None if args.trace else measure_setup(args.workload, run_dir)
        kernel = calibrate.KERNEL[args.workload]
        for op in warm:
            calibrate.kernel_time(kernel)
            execute(op)

        run = Run(ops, run_dir, kernel)
        walls, batches = [], []
        start = time.perf_counter()
        while True:
            wall, batch = run.round()
            walls.append(wall)
            batches.append(batch)
            elapsed = time.perf_counter() - start
            if elapsed + max(walls) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        batch_s = statistics.median(batches)

        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, _ = run.round(tracer)
            finally:
                tracer.uninstall()
            trace_path = RUNS / "traces" / f"{args.workload}-{args.seed}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_path)
            metrics = tracing.layer_metrics(tracer, run.report_bytes,
                                            traced / statistics.median(walls))
        else:
            # all operation times of all rounds; the tail is the percentile
            # with ten operations of a round beyond it, (n - 10) / n
            samples = sorted(t for ts in run.times.values() for t in ts)
            rank = math.ceil(len(samples) * (len(ops) - TAIL_BEYOND) / len(ops)) - 1
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "batch_s": {"value": batch_s, "unit": "s"},
                "op_p50_s": {"value": statistics.median(samples), "unit": "s"},
                "op_tail_s": {"value": samples[rank], "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        failed, reasons = run.verify()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for why in reasons[:20]:
        print(f"FAILED {why}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops x {len(run.outcomes) // len(ops)} "
          f"rounds, round walls {[round(w, 3) for w in walls]}, "
          f"scaled {[round(b, 3) for b in batches]}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(run.outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
