"""phaseatlas benchmark: one closed-loop client calling the CLI in process.

    python3 bench/run.py --workload exact-analyze --seed 1 --seconds 35 --trace 0

Runs whole passes over the workload's seeded item list while the slowest pass
so far still fits in --seconds, checks every output, and prints one JSON result as
the last line of stdout.  --trace 0 reports the end-to-end metrics; --trace 1
runs half the time untraced and half traced and reports per-layer metrics.
Item latencies are scaled by the host's speed, measured with a fixed
calibration kernel around each item (see `scale_to_reference`).  A full
report (environment, raw times, percentiles, sample counts, failures) goes to
stderr.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests"
DEFAULT_SEED = 1
COLD_STARTS = 11  # fresh interpreters timed for setup_s, after one untimed warm-up
COLD_START_CODE = "import phaseatlas.cli as c; c.build_parser()"
# Item times are reported as they would read on a host where one calibration
# kernel takes this long (about the median of a 2-vCPU cloud VM).
REFERENCE_CALIBRATION_S = 0.005
CALIBRATION_STEPS = 3000
CALIBRATION_WINDOW = 4  # calibrations on each side of a timed call that scale it


def _calibration_kernel(steps=CALIBRATION_STEPS):
    """Fixed pure-Python work in the program's mix: float field steps, Fractions, formatting."""
    def field(x, y):
        r = x * x + y * y + 1.0
        return x * y / r - 0.5 * x, y * y / r - 0.25 * y + 0.1

    x, y, h, total, parts = 0.3, 0.7, 1e-3, Fraction(0), []
    for k in range(steps):
        k1 = field(x, y)
        k2 = field(x + h * k1[0], y + h * k1[1])
        x += 0.5 * h * (k1[0] + k2[0])
        y += 0.5 * h * (k1[1] + k2[1])
        if k % 16 == 0:
            total += Fraction(k + 1, 2 * k + 3)
            parts.append(f"{x:.4f},{y:.4f}")
    return len(",".join(parts)), total


def calibration_seconds():
    """Wall time of one calibration kernel: the host's current speed, independent of phaseatlas."""
    t0 = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - t0


def scale_to_reference(times, calibrations):
    """Turn wall times into times on the reference host.

    times[i] (None for a failed call) was measured between calibrations[i]
    and calibrations[i + 1].  The host's CPU speed drifts by 20% and more over
    seconds to minutes, and every pure-Python workload slows with it, so each
    time is scaled by REFERENCE_CALIBRATION_S over the median of the
    CALIBRATION_WINDOW calibrations on each side of it.  That removes most of
    the drift and none of the program's own cost.  Within a second the host's
    speed jitters too fast for a 5 ms kernel to track, so the window is wide
    enough to average that jitter out, and a median so that one preempted
    kernel does not count.
    """
    w = CALIBRATION_WINDOW
    return [
        t * REFERENCE_CALIBRATION_S / statistics.median(calibrations[max(0, i + 1 - w): i + 1 + w])
        for i, t in enumerate(times) if t is not None
    ]


def percentile(values, p):
    """Linear-interpolated percentile of a non-empty list."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def environment(seed):
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": usable,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ATLAS_THREADS", None)
    return env


def cold_start_seconds(n=COLD_STARTS):
    """Median wall time of a fresh interpreter importing the CLI and building its parser.

    Not scaled to the reference host: the start runs in another process and
    is partly exec and file reads, and a calibration kernel timed in this
    process just after a child exits can read 3x slow.
    """
    env = _child_env()
    times = []
    for k in range(n + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", COLD_START_CODE], env=env, cwd=ROOT, check=True)
        if k:  # the first start compiles bytecode, which users pay once
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_seconds(n=3):
    """Median cumulative import time of phaseatlas and of numpy, from -X importtime."""
    env = _child_env()
    found = {"phaseatlas": [], "numpy": []}
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", COLD_START_CODE],
            env=env, cwd=ROOT, check=True, capture_output=True, text=True,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in found:
                found[parts[2]].append(int(parts[1]) / 1e6)
    return {name: statistics.median(v) for name, v in found.items()}


class Runner:
    """Closed loop over one item list; every output is checked and digested."""

    def __init__(self, items, locked):
        self.items = items
        self.locked = locked  # item id -> digests from the behaviour lock, or None
        self.seen = {}  # item id -> digests of its first run in this process
        self.failures = []

    def _run_item(self, item, cli):
        outputs = []
        t0 = time.perf_counter()
        for argv in item.calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
            if rc != 0:
                raise RuntimeError(f"exit code {rc}: {err.getvalue().strip()[:200]}")
            outputs.append(out.getvalue())
        elapsed = time.perf_counter() - t0
        for k, path in enumerate(item.output_files):
            if path is not None:
                outputs[k] = Path(path).read_text(encoding="utf-8")
        return elapsed, outputs

    def _verdict(self, item, outputs):
        problem = item.check(outputs)
        if problem:
            return problem
        digests = [hashlib.sha256(o.encode("utf-8")).hexdigest() for o in outputs]
        first = self.seen.setdefault(item.id, digests)
        if digests != first:
            return "output differs from this item's first run"
        if self.locked is not None and digests != self.locked.get(item.id):
            return "output differs from the behaviour lock"
        return None

    def run(self, seconds, cli):
        """Whole passes while the slowest pass so far still fits in `seconds`; at least one.

        A calibration kernel runs before the first item and after every item,
        and each latency is scaled by the ones around it (`scale_to_reference`).
        """
        times, calibrations = [], [calibration_seconds()]
        attempted, failed, passes, slowest = 0, 0, 0, 0.0
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for item in self.items:
                attempted += 1
                try:
                    elapsed, outputs = self._run_item(item, cli)
                    problem = self._verdict(item, outputs)
                except Exception as exc:  # any failure of the program is a failed item
                    elapsed, problem = None, f"{type(exc).__name__}: {exc}"
                calibrations.append(calibration_seconds())
                if problem:
                    failed += 1
                    self.failures.append({"item": item.id, "error": problem})
                    elapsed = None
                times.append(elapsed)
            passes += 1
            now = time.perf_counter()
            slowest = max(slowest, now - pass_start)
            if now - start + slowest > seconds:
                break
        return {
            "passes": passes,
            "attempted": attempted,
            "failed": failed,
            "latencies": scale_to_reference(times, calibrations),
            "raw_latencies": [t for t in times if t is not None],
            "calibrations": calibrations,
            "wall_s": time.perf_counter() - start,
        }


def latency_metrics(lat, tail_p):
    """items_per_s, p50 and tail of a list of item times in seconds."""
    return {
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, tail_p) * 1e3, "ms"),
    }


def end_to_end(phase, tail_p):
    """(metrics, detail) of one phase; item times exclude the harness's checks."""
    lat = phase["latencies"]
    if not lat:
        return {"items_per_s": (0.0, "1/s")}, {"samples": 0}
    metrics = latency_metrics(lat, tail_p)
    tail = metrics["latency_tail_ms"][0] / 1e3
    detail = {
        "tail_percentile": f"p{tail_p}",
        "samples": len(lat),
        "samples_beyond_tail": sum(1 for v in lat if v > tail),
        "error_rate": phase["failed"] / phase["attempted"],
        "passes": phase["passes"],
        "wall_s": phase["wall_s"],
        "calibration_ms": {
            "reference": REFERENCE_CALIBRATION_S * 1e3,
            "median": statistics.median(phase["calibrations"]) * 1e3,
            "min": min(phase["calibrations"]) * 1e3,
            "max": max(phase["calibrations"]) * 1e3,
        },
        "unscaled": {
            k: v for k, (v, _) in latency_metrics(phase["raw_latencies"], tail_p).items()},
    }
    return metrics, detail


def load_lock(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    return json.loads((DIGESTS / f"{workload}.json").read_text())["items"]


def measure(args, workload, items, cli):
    """Run the timed phases; returns (metrics, detail, phases, runner)."""
    runner = Runner(items, load_lock(args.workload, args.seed))
    if not args.trace:
        phase = runner.run(args.seconds, cli)
        metrics, detail = end_to_end(phase, workload.tail_percentile)
        return metrics, detail, [phase], runner

    from layers import PER_LAYER, Tracer

    plain = runner.run(args.seconds / 2, cli)
    with Tracer() as tracer:
        traced = runner.run(args.seconds / 2, cli)
    metrics = tracer.metrics(traced["passes"])
    imports = import_seconds()
    metrics["import.phaseatlas_s"] = (imports["phaseatlas"], "s")
    metrics["import.numpy_s"] = (imports["numpy"], "s")
    untraced_rate = end_to_end(plain, 50)[0]["items_per_s"][0]
    traced_rate = end_to_end(traced, 50)[0]["items_per_s"][0]
    metrics["trace.untraced_items_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_items_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (
        untraced_rate / traced_rate if traced_rate else 0.0, "ratio")
    detail = {
        "untraced_passes": plain["passes"],
        "traced_passes": traced["passes"],
        "all_layers": {k: v for k, (v, _) in metrics.items()},
    }
    return {k: metrics[k] for k in PER_LAYER}, detail, [plain, traced], runner


def main(argv=None):
    from workloads import WORKLOADS, build

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests", action="store_true",
        help=f"record the behaviour lock for seed {DEFAULT_SEED} from one pass, then exit",
    )
    args = parser.parse_args(argv)

    if not (SRC / "phaseatlas" / "cli.py").is_file():
        print(f"error: no phaseatlas sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ATLAS_THREADS", None)

    env = environment(args.seed)
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = None if args.trace or args.write_digests else cold_start_seconds()
        import phaseatlas.cli as cli

        items = build(args.workload, args.seed, workdir)
        if args.write_digests:
            return write_digests(args, items, cli)
        metrics, detail, phases, runner = measure(args, workload, items, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    env["loadavg_end"] = list(os.getloadavg())
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "items_per_pass": len(items),
        "behaviour_lock": "checked" if runner.locked is not None else "no lock for this seed",
        "error_rate": failed / attempted,
        "detail": detail,
        "failures": runner.failures[:20],
        "metrics": as_json,
    }
    print(json.dumps(report, indent=1), file=sys.stderr)
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": as_json}))
    return 0


def write_digests(args, items, cli):
    if args.seed != DEFAULT_SEED:
        print(f"error: the behaviour lock is for seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    runner = Runner(items, None)
    phase = runner.run(0, cli)
    if phase["failed"]:
        print(json.dumps(runner.failures, indent=1), file=sys.stderr)
        return 1
    DIGESTS.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "items": runner.seen}
    (DIGESTS / f"{args.workload}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    sys.exit(main())
