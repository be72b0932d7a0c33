"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

* two traced iterations of every workload give exactly the same work
  counters (rk4_steps, birkhoff_steps, samples, fold_moves, translates,
  rungs, call counts, bytes written, ...), and their outputs pass the checker;
* the checker rejects deliberately corrupted outputs: a changed alpha_raw
  digit, a changed flag, one extra histogram count, a perturbed orbit
  average (with rel_err made consistent), an RK4 trajectory moved by 1e-7,
  a changed ladder rung;
* without the magflow sources the benchmark exits nonzero and prints no
  result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import check
from run import OUT, ROOT, Runner, Spawner, child_env, layer_metrics, merge_layers

SEED = 3
failures = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def counters_repeat(spawner: Spawner) -> dict:
    """Two traced iterations per workload; returns each workload's output dirs."""
    outputs = {}
    for name in ("bolza-density", "cover-sample", "equidist", "trajectory-ladder"):
        runner = Runner(name, SEED, spawner)
        firsts = [runner.iteration(traced=True, run_id=i) for i in (1, 2)]
        expect(runner.failed == 0, f"{name}: traced outputs pass the checker {runner.problems}")
        merged = [merge_layers(it["layers"]) for it in firsts]
        counts = [{k: v for k, (unit, v) in layer_metrics(m).items()
                   if unit in ("count", "bytes", "ratio")} for m in merged]
        calls = [{k: rec["calls"] for k, rec in m["spans"].items()} for m in merged]
        expect(counts[0] == counts[1] and calls[0] == calls[1],
               f"{name}: work counters repeat exactly {counts[0]}")
        outputs[name] = runner.work
    return outputs


def _edit_csv(path: str, column: str, row_pick, change) -> None:
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    header = lines[0].split(",")
    j = header.index(column)
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        if len(cells) == len(header) and row_pick(cells, header):
            cells[j] = change(cells[j])
            lines[i] = ",".join(cells)
            break
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines))


def _flip_third_digit(text: str) -> str:
    mant, _, exp = text.partition("e")
    digits = [i for i, ch in enumerate(mant) if ch.isdigit()]
    nz = [i for i in digits if mant[i] != "0" or any(mant[k] != "0" for k in digits if k < i)]
    pos = nz[2]
    return mant[:pos] + str((int(mant[pos]) + 1) % 10) + mant[pos + 1:] + ("e" + exp if exp else "")


def _edit_json(path: str, change) -> None:
    with open(path) as fh:
        obj = json.load(fh)
    change(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def corruption_rejected(outputs: dict) -> None:
    manifest = check.load_manifest()
    regular = lambda cells, header: cells[header.index("flag")] == "Regular"  # noqa: E731

    def per_equidist(obj):
        obj["orbit_averages"][1] *= 1.0 + 1e-5
        obj["rel_err"] = [a / obj["space_average"] - 1.0 for a in obj["orbit_averages"]]
        obj["max_abs_rel_err"] = max(abs(x) for x in obj["rel_err"])

    cases = [
        ("bolza-density", "density", "flipped alpha_raw digit",
         lambda d: _edit_csv(os.path.join(d, "density_grid.csv"), "alpha_raw", regular,
                             _flip_third_digit)),
        ("cover-sample", "density", "changed flag",
         lambda d: _edit_csv(os.path.join(d, "density_grid.csv"), "flag", regular,
                             lambda v: "NearBoundary")),
        ("cover-sample", "sample", "one extra histogram count",
         lambda d: _edit_csv(os.path.join(d, "histogram.csv"), "count", lambda c, h: True,
                             lambda v: str(int(v) + 1))),
        ("equidist", "equidist", "perturbed orbit average",
         lambda d: _edit_json(os.path.join(d, "equidist.json"), per_equidist)),
        ("trajectory-ladder", "flow", "RK4 trajectory moved by 1e-7",
         lambda d: _edit_csv(os.path.join(d, "flow_numeric.csv"), "re_z",
                             lambda c, h: float(c[0]) > 1.0,
                             lambda v: repr(float(v) + 1e-7))),
        ("trajectory-ladder", "spectrum", "changed ladder rung",
         lambda d: _edit_csv(os.path.join(d, "spectrum.csv"), "lambda", lambda c, h: True,
                             lambda v: repr(float(v) * (1 + 1e-12)))),
    ]
    for workload, inv, what, corrupt in cases:
        src = os.path.join(outputs[workload], inv)
        clean, _, _ = check.check_invocation(workload, inv, SEED, src, manifest)
        expect(not clean, f"{workload}/{inv}: clean output passes")
        dst = os.path.join(OUT, "selftest", workload, inv)
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst)
        corrupt(dst)
        problems, _, _ = check.check_invocation(workload, inv, SEED, dst, manifest)
        expect(bool(problems), f"{workload}/{inv}: {what} is rejected {problems[:1]}")


def fails_without_sources() -> None:
    bare = os.path.join(OUT, "selftest", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "equidist",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    expect(res.returncode != 0 and '"correct"' not in res.stdout,
           f"without sources: exit {res.returncode}, no result printed")


def main() -> int:
    with Spawner(child_env()) as spawner:
        outputs = counters_repeat(spawner)
    corruption_rejected(outputs)
    fails_without_sources()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
