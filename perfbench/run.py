"""Benchmark for the multicyclic CLI.

    python3 perfbench/run.py --workload search|distance|big-ring \
        --seed N --seconds S --trace 0|1

Every repetition runs the workload's command list (see workloads.py) as
user commands through `multicyclic.cli.main` in a fresh worker process
and checks every output.  Repetitions continue until S seconds have
been spent (at least one is made).

--trace 0 reports the end-to-end metrics, each the median over the
repetitions: wall_s, work_per_s, cpu_s and peak_rss_mb of the command
list, and setup_s, the time from starting a fresh interpreter until it
has imported the package, over several extra start-ups and every
repetition.

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see tracing.py), with the tracing
overhead taken against the untraced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed (commands, counting failed output checks)
and metrics.  The lines before it give each metric with its sample
count, the inputs, and the machine and noise record; the full record,
and for a traced run its spans, go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORK_UNIT, WORKLOADS, commands
from tracing import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 3        # extra start-ups measured for setup_s per repetition
RUN_LIMIT_S = 170       # a run ends before the 180 s a run may take

END_TO_END = {
    "wall_s": "s", "work_per_s": "1/s", "cpu_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _steal_s():
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def worker_env() -> dict:
    """The environment of a worker: the package is imported from src/."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


class Runner:
    """Spawns workers for one benchmark run and keeps what they report."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = worker_env()
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def spawn(self, cmds, trace=False, spans=None):
        """Run one worker; returns (setup_s, report), report None on failure."""
        spec = {"commands": [list(c.argv) for c in cmds], "trace": trace,
                "spans": str(spans) if spans else None}
        t0 = _now()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT,
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - _now()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return self._fail(cmds, "worker timed out")
        try:
            report = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return self._fail(cmds, f"worker exit {proc.returncode}: {err[-2000:]}")
        for cmd, res in zip(cmds, report["commands"]):
            self.attempted += 1
            problem = (f"exit code {res['rc']}: {res['stderr'][-500:]}"
                       if res["rc"] != 0 else cmd.check(res["stdout"]))
            if problem is not None:
                self.failed += 1
                self.errors.append(f"{' '.join(cmd.argv)}: {problem}")
        return report["ready"] - t0, report

    def _fail(self, cmds, why):
        self.attempted += len(cmds)
        self.failed += len(cmds)
        self.errors.append(why)
        return None, None


def _stats(values):
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmds = commands(workload, seed)
    work = sum(c.work for c in cmds)
    start = _now()
    runner = Runner(start + RUN_LIMIT_S)
    setups, plain, traced = [], [], []
    spans = ROOT / ".perfbench" / f"{workload}-seed{seed}-spans.json"
    took = []
    # Stop before a repetition expected to end after `seconds`; the first
    # (untraced and, with --trace 1, traced) repetitions always run.
    while (not plain or (trace and not traced)
           or _now() - start + statistics.mean(took) <= seconds):
        t0 = _now()
        use_trace = trace and len(traced) < len(plain)
        if not trace:
            for _ in range(SETUP_PROBES):
                setup, _ = runner.spawn([])
                if setup is not None:
                    setups.append(setup)
        setup, report = runner.spawn(cmds, use_trace, spans if use_trace else None)
        if report is None:
            break
        (traced if use_trace else plain).append(report)
        if not use_trace:
            setups.append(setup)
        took.append(_now() - t0)

    samples = {}
    if plain:
        samples.update({
            "wall_s": [r["wall_s"] for r in plain],
            "work_per_s": [work / r["wall_s"] for r in plain],
            "cpu_s": [r["cpu_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        })
    if setups:
        samples["setup_s"] = setups
    if traced:
        for name in PER_LAYER:
            if name != "trace.overhead_frac":
                samples[name] = [r["layers"][name] for r in traced]
        if plain:
            samples["trace.overhead_frac"] = [
                statistics.median(r["wall_s"] for r in traced)
                / statistics.median(samples["wall_s"]) - 1.0]
    stats = {name: _stats(vals) for name, vals in samples.items()}
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit in units.items() if name in stats}
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "argv": [list(c.argv) for c in cmds], "work": work,
        "work_unit": WORK_UNIT[workload],
        "attempted": runner.attempted, "failed": runner.failed,
        "errors": runner.errors,
        "numpy": (plain + traced)[0]["numpy"] if plain or traced else None,
        "samples": samples, "stats": stats, "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "multicyclic" / "cli.py").is_file():
        print(f"error: no multicyclic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    load0, steal0 = os.getloadavg(), _steal_s()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result["machine"] = {
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": result.pop("numpy"),
        "loadavg_start": load0, "loadavg_end": os.getloadavg(),
        "steal_s": _steal_s() - steal0,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = ROOT / ".perfbench" / name
    record.write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"work {result['work']} {result['work_unit'].split('/')[0]}")
    for argv_ in result["argv"]:
        print("  multicyclic " + " ".join(argv_))
    print("machine " + json.dumps(result["machine"]))
    units = {**END_TO_END, **PER_LAYER, "work_per_s": result["work_unit"]}
    for name, st in result["stats"].items():
        unit = units[name]
        print(f"{name:40s} {st['median']:.6g} {unit}  (median of {st['n']}, "
              f"q1 {st['q1']:.6g}, q3 {st['q3']:.6g})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'fail_frac':40s} {failed / max(attempted, 1):.6g}  "
          f"({failed} of {attempted} commands)")
    for msg in result["errors"][:10]:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
