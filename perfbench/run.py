"""magflow benchmark: drives the ``magflow`` CLI as a user does and measures it.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root (it locates ``src`` next to this directory).
One client runs one CLI invocation at a time, each in a fresh interpreter
(``python -m magflow.cli ...`` with ``PYTHONPATH=src``), until S seconds
have passed; ``MAGFLOW_THREADS`` is removed from the children's environment,
so the program uses its default worker count.  An iteration is one pass over
the workload's invocations.  Every output is checked (``check.py``).

Every timed child is followed by a run of ``yardstick.py``, a fixed job that
does not import magflow.  A child's wall time is scaled by ``YARDSTICK_REF_S``
over the mean wall time of the yardstick runs on either side of it, and its
CPU time likewise by their mean CPU time: seconds on a machine where the
yardstick takes ``YARDSTICK_REF_S``.  The speed of a shared virtual machine
can change by up to a factor of two for seconds to minutes at a time; the
scaled times follow the program rather than that state (NOTES.md).  The
unscaled times are reported and recorded as ``raw_*``.

``--trace 0`` reports the end-to-end metrics: wall_s and cpu_s (per
iteration, scaled and summed over invocations, and averaged over the run's
iterations; CPU time and peak RSS of each child come from ``os.wait4``),
peak_rss_mb (largest child of the iteration, median over iterations) and
setup_s (a fresh interpreter importing ``magflow.cli`` and building the
workload's one-time structures, timed in its own process and scaled, median
of five).  The record also holds the median, a high percentile and the
count of every metric's samples.  ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics of the traced ones
(``tracer.py``) plus the trace overhead, traced minus untraced wall_s.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, and the full record, with the
environment, goes to ``.perfbench-out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 5          # set-up samples per run
YARDSTICK = os.path.join(HERE, "yardstick.py")
YARDSTICK_REF_S = 0.5      # yardstick time the scaled times refer to

sys.path.insert(0, HERE)
import check  # noqa: E402
import numpy  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# metric -> (unit, statistic over the run's samples).  Times per iteration are
# averaged, not taken at the median: the machine's speed switches between
# states, and the median of a run's iterations lands in whichever state held
# longest (NOTES.md).  The raw_* times are reported but
# are not the benchmark's metrics.
END_TO_END = {"wall_s": ("s", "mean"), "cpu_s": ("s", "mean"),
              "setup_s": ("s", "median"), "peak_rss_mb": ("MB", "median"),
              "raw_wall_s": ("s", "mean"), "raw_cpu_s": ("s", "mean"),
              "raw_setup_s": ("s", "median"), "yardstick_s": ("s", "median")}
REPORTED = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MAGFLOW_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Spawner:
    """Runs children through ``spawner.py``, a small process of its own, so that
    each child's ``ru_maxrss`` is its own peak and not this process's."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "spawner.py")],
                                     cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list, err_path: str) -> dict:
        """Run one child to completion; wall, CPU and peak RSS of that child alone."""
        self.proc.stdin.write(json.dumps({"cmd": cmd, "cwd": ROOT, "stderr": err_path}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner process ended unexpectedly")
        res = json.loads(line)
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode("utf-8", "replace")
        return {
            "wall_s": res["wall_s"],
            "cpu_s": res["cpu_s"],
            "rss_mb": res["maxrss_kb"] / 1024.0,       # ru_maxrss is in KiB on Linux
            "rc": res["rc"],
            "stderr": stderr,
        }

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def output_digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def dir_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


class Runner:
    """One benchmark run: iterations of one workload at one seed."""

    def __init__(self, workload: str, seed: int, spawner: Spawner):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.spawner = spawner
        self.work = os.path.join(OUT, "work", workload)
        self.manifest = check.load_manifest()
        self.verdicts = {}     # (invocation, output digest) -> (problems, identical, known)
        self.attempted = 0
        self.failed = 0
        self.identical = 0
        self.known = 0
        self.problems = []
        self.gauges = []       # (wall, cpu) of every yardstick run, in order
        os.makedirs(self.work, exist_ok=True)

    def gauge(self) -> tuple:
        """Run the yardstick once; its wall and CPU time."""
        res = self.spawner.run([sys.executable, YARDSTICK],
                               os.path.join(self.work, "yardstick.err"))
        if res["rc"] != 0:
            raise RuntimeError("yardstick failed:\n" + res["stderr"])
        self.gauges.append((res["wall_s"], res["cpu_s"]))
        return self.gauges[-1]

    def timed(self, cmd: list, err_path: str) -> dict:
        """Run one child, then the yardstick.  ``wall_scale`` and ``cpu_scale``
        convert the child's times to seconds at the yardstick's reference
        speed, from the mean of the yardstick runs just before and after it."""
        if not self.gauges:
            self.gauge()
        before = self.gauges[-1]
        res = self.spawner.run(cmd, err_path)
        after = self.gauge()
        res["wall_scale"] = YARDSTICK_REF_S / (0.5 * (before[0] + after[0]))
        res["cpu_scale"] = YARDSTICK_REF_S / (0.5 * (before[1] + after[1]))
        return res

    def setup_time(self) -> tuple:
        """(raw, scaled) wall time of one set-up."""
        res = self.timed([sys.executable, "-c", self.workload.setup],
                         os.path.join(self.work, "setup.err"))
        if res["rc"] != 0:
            raise RuntimeError("set-up failed:\n" + res["stderr"])
        return res["wall_s"], res["wall_s"] * res["wall_scale"]

    def iteration(self, traced: bool, run_id: int) -> dict:
        """Run every invocation once; per-iteration sums (raw and scaled) and
        maxima."""
        total = {"wall_s": 0.0, "cpu_s": 0.0, "raw_wall_s": 0.0, "raw_cpu_s": 0.0,
                 "peak_rss_mb": 0.0, "layers": []}
        for inv in self.workload.invocations:
            out_dir = os.path.join(self.work, inv.name)
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = self.workload.argv(inv, self.seed, out_dir)
            summary_path = os.path.join(self.work, inv.name + ".trace.json")
            if os.path.exists(summary_path):
                os.remove(summary_path)
            if traced:
                cmd = [sys.executable, os.path.join(HERE, "tracer.py"), summary_path,
                       os.path.join(self.work, inv.name + ".spans.npz"), str(run_id), "--"] + argv
            else:
                cmd = [sys.executable, "-m", "magflow.cli"] + argv
            res = self.timed(cmd, os.path.join(self.work, inv.name + ".err"))
            wall = res["wall_s"]
            ok = self._judge(inv.name, out_dir, res)
            if traced and ok:
                with open(summary_path) as fh:
                    layer = json.load(fh)
                wall -= layer["post_s"]          # span summary and file writes after main
                layer["bytes_written"] = dir_bytes(out_dir)
                total["layers"].append(layer)
            total["raw_wall_s"] += wall
            total["raw_cpu_s"] += res["cpu_s"]
            total["wall_s"] += wall * res["wall_scale"]
            total["cpu_s"] += res["cpu_s"] * res["cpu_scale"]
            total["peak_rss_mb"] = max(total["peak_rss_mb"], res["rss_mb"])
        return total

    def _judge(self, inv: str, out_dir: str, res: dict) -> bool:
        self.attempted += 1
        problems = []
        if res["rc"] != 0:
            problems.append(f"{inv}: exit code {res['rc']}")
        if "Traceback" in res["stderr"]:
            problems.append(f"{inv}: traceback on stderr")
        if not problems and not os.path.isdir(out_dir):
            problems.append(f"{inv}: no output directory")
        if not problems:
            key = (inv, output_digest(out_dir))
            if key not in self.verdicts:
                self.verdicts[key] = check.check_invocation(
                    self.workload.name, inv, self.seed, out_dir, self.manifest)
            found, identical, known = self.verdicts[key]
            problems += found
            self.identical += identical
            self.known += known
        if problems:
            self.failed += 1
            self.problems += [p for p in problems if p not in self.problems]
            if res["stderr"].strip():
                self.problems.append(f"{inv} stderr: " + res["stderr"].strip()[-2000:])
        return not problems


# ---------------------------------------------------------------------------
# metrics

def summary_stats(values: list) -> dict:
    """Mean, median, the highest percentile with at least ten samples beyond it,
    and the count."""
    xs = sorted(values)
    n = len(xs)
    out = {"mean": statistics.fmean(xs), "median": statistics.median(xs), "n": n}
    if n >= 11:
        out[f"p{100.0 * (n - 10) / n:.4g}"] = xs[n - 11]
    return out


def merge_layers(layers: list) -> dict:
    spans, counters = {}, {}
    for layer in layers:
        for name, rec in layer["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += rec[k]
        for k, v in layer["counters"].items():
            # the enumeration size is a property, not work: keep the largest
            counters[k] = max(counters.get(k, 0), v) if k == "surface.translates" \
                else counters.get(k, 0) + v
    counters["cli.bytes_written"] = sum(layer["bytes_written"] for layer in layers)
    return {"spans": spans, "counters": counters}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(merged: dict) -> dict:
    """Per-layer metric name -> (unit, value) from merged spans and counters."""
    sp, ct = merged["spans"], merged["counters"]

    def s(name, key):
        return sp.get(name, {}).get(key, 0)

    def c(key):
        return ct.get(key, 0)

    return {
        "cli.self_s": ("s", s("cli.main", "self_s")),
        "cli.bytes_written": ("bytes", c("cli.bytes_written")),
        "torus.preimages_cover.calls": ("count", s("torus.preimages_cover", "calls")),
        "torus.preimages_cover.self_s": ("s", s("torus.preimages_cover", "self_s")),
        "torus.preimages_cover.us_per_call": ("us", _ratio(
            s("torus.preimages_cover", "total_s"), s("torus.preimages_cover", "calls"), 1e6)),
        "torus.density_mass.total_s": ("s", s("torus.density_mass", "total_s")),
        "torus.psi_many.self_s": ("s", s("torus.psi_many", "self_s")),
        "torus.psi_many.ns_per_sample": ("ns", _ratio(
            s("torus.psi_many", "total_s"), c("torus.psi_many.elements"), 1e9)),
        "torus.alpha_radial.self_s": ("s", s("torus.alpha_radial", "self_s")),
        "torus.t_of_distance.self_s": ("s", s("torus.t_of_distance", "self_s")),
        "flow.flow_matrix.calls": ("count", s("flow.flow_matrix", "calls")),
        "flow.flow_matrix.self_s": ("s", s("flow.flow_matrix", "self_s")),
        "flow.flow_numeric.self_s": ("s", s("flow.flow_numeric", "self_s")),
        "flow.rk4_steps": ("count", c("flow.rk4_steps")),
        "flow.us_per_rk4_step": ("us", _ratio(
            s("flow.flow_numeric", "total_s"), c("flow.rk4_steps"), 1e6)),
        "flow.lyapunov_exponent.self_s": ("s", s("flow.lyapunov_exponent", "self_s")),
        "surface.translates_meeting_disk.cold_s": (
            "s", c("surface.translates_meeting_disk.cold_s")),
        "surface.translates_meeting_disk.cache_hits": (
            "count", c("surface.translates_meeting_disk.cache_hits")),
        "surface.translates": ("count", c("surface.translates")),
        "surface.density_surface.calls": ("count", s("surface.density_surface", "calls")),
        "surface.density_surface.self_s": ("s", s("surface.density_surface", "self_s")),
        "surface.reduce_point.self_s": ("s", s("surface.reduce_point", "self_s")),
        "surface.fold_moves": ("count", c("surface.fold_moves")),
        # useful preimage solves over attempted (point, translate) pairs
        "surface.translate_hit_ratio": ("ratio", _ratio(
            c("surface.preimages_in_density_surface"),
            s("surface.density_surface", "calls") * c("surface.translates"))),
        "surface.birkhoff_average.self_s": ("s", s("surface.birkhoff_average", "self_s")),
        "surface.birkhoff_steps": ("count", c("surface.birkhoff_steps")),
        "surface.us_per_birkhoff_step": ("us", _ratio(
            s("surface.birkhoff_average", "total_s"), c("surface.birkhoff_steps"), 1e6)),
        "surface.area_average.total_s": ("s", s("surface.area_average", "total_s")),
        "mc.sample_pushforward.self_s": ("s", s("mc.sample_pushforward", "self_s")),
        "mc.samples": ("count", c("mc.samples")),
        "mc.chunks": ("count", c("mc.chunks")),
        "mc.ns_per_sample": ("ns", _ratio(
            s("mc.sample_pushforward", "total_s"), c("mc.samples"), 1e9)),
        "mc.compare_to_closed_form.self_s": ("s", s("mc.compare_to_closed_form", "self_s")),
        "spectrum.ladder.self_s": ("s", s("spectrum.ladder", "self_s")),
        "spectrum.rungs": ("count", c("spectrum.rungs")),
        "halfplane.matmul_calls": ("count", c("halfplane.matmul_calls")),
        "halfplane.hyp_dist_calls": ("count", c("halfplane.hyp_dist_calls")),
    }


# ---------------------------------------------------------------------------
# environment record

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None                       # a plain checkout: src_sha256 identifies the code
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "magflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "MAGFLOW_THREADS": None,          # removed from every child's environment
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    with Spawner(child_env()) as spawner:
        return _measure(Runner(workload, seed, spawner), seconds, trace)


def _measure(runner: Runner, seconds: float, trace: bool) -> dict:
    workload, seed = runner.workload.name, runner.seed
    env = environment(seed)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env}
    setups, untraced, traced = [], [], []
    start = time.perf_counter()
    # one set-up before each of the first SETUP_REPEATS iterations; a new
    # iteration starts only if the last one's duration still fits
    while True:
        t0 = time.perf_counter()
        if len(setups) < SETUP_REPEATS:
            setups.append(runner.setup_time())
        untraced.append(runner.iteration(traced=False, run_id=0))
        if trace:
            traced.append(runner.iteration(traced=True, run_id=len(traced) + 1))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(runner.setup_time())
    env["loadavg_end"] = list(os.getloadavg())

    iter_keys = ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s", "peak_rss_mb")
    record["iterations"] = [{k: it[k] for k in iter_keys} for it in untraced]
    record["setups"] = [{"raw_s": raw, "scaled_s": scaled} for raw, scaled in setups]
    record["yardstick_runs"] = [{"wall_s": w, "cpu_s": c} for w, c in runner.gauges]
    record["end_to_end"] = {k: summary_stats([it[k] for it in untraced]) for k in iter_keys}
    record["end_to_end"].update({
        "setup_s": summary_stats([scaled for _, scaled in setups]),
        "raw_setup_s": summary_stats([raw for raw, _ in setups]),
        "yardstick_s": summary_stats([w for w, _ in runner.gauges]),
        "failed_frac": runner.failed / runner.attempted,
    })
    if trace:
        complete = [it for it in traced if len(it["layers"]) == len(runner.workload.invocations)]
        per_iter = [layer_metrics(merge_layers(it["layers"])) for it in complete]
        layers = {}
        if per_iter:
            for name, (unit, _) in per_iter[0].items():
                layers[name] = (unit, statistics.median(m[name][1] for m in per_iter))
        traced_wall = statistics.fmean(it["wall_s"] for it in traced)
        layers["bench.trace_overhead_s"] = (
            "s", traced_wall - statistics.fmean(it["wall_s"] for it in untraced))
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (u, v) in layers.items()}
        record["traced_iterations"] = len(traced)
    record["outputs_identical"] = {"identical": runner.identical, "with_digest": runner.known}
    record["problems"] = runner.problems
    record["attempted"] = runner.attempted
    record["failed"] = runner.failed

    if trace:
        metrics = record["per_layer"]
    else:
        e2e = record["end_to_end"]
        metrics = {k: {"value": e2e[k][END_TO_END[k][1]], "unit": END_TO_END[k][0]}
                   for k in REPORTED}
    record["result"] = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    env = record["environment"]
    print("environment " + json.dumps(env, sort_keys=True))
    for name, st in record["end_to_end"].items():
        if isinstance(st, dict):
            unit, stat = END_TO_END[name]
            extra = "  ".join(f"{k} {v:.6g}" for k, v in st.items() if k not in (stat, "n"))
            print(f"  {name:<14} {st[stat]:.6g} {unit}  ({stat} of {st['n']}; {extra})")
    print(f"  {'failed_frac':<14} {record['end_to_end']['failed_frac']:.6g} ratio  "
          f"({record['failed']} of {record['attempted']} invocations)")
    ident = record["outputs_identical"]
    print(f"  outputs_identical {ident['identical']} of {ident['with_digest']} files "
          "with a recorded digest (seeded files have one only at the reference seed)")
    for name, m in record.get("per_layer", {}).items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    for p in record["problems"]:
        print(f"  problem: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative: the CLI's generators reject negative seeds")
    if not os.path.isfile(os.path.join(SRC, "magflow", "cli.py")):
        print(f"error: magflow sources not found under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = os.path.join(OUT, "results",
                            f"{name}-seed{args.seed}-trace{args.trace}-{stamp}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        report(record)
        results[name] = record["result"]
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
