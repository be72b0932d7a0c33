"""Record the reference outputs that ``check.py`` compares against.

    python3 perfbench/record.py

Runs every workload invocation once at seed 0 and stores each output file,
xz-compressed, under ``perfbench/reference/<workload>/<invocation>/``, with
the sha256 of every file in ``manifest.json``.  ``spectrum.csv`` is kept as a
digest only: the checker rebuilds it from the ladder's closed form.  Files
that depend on the seed are recorded at seed 0 only.  Run it only
at a commit whose outputs are known to be right: everything later is checked
against them.
"""

from __future__ import annotations

import json
import lzma
import os
import shutil
import sys

from check import REF_DIR, digest
from run import OUT, WORKLOADS, Spawner, child_env

DIGEST_ONLY = {"spectrum.csv"}
REFERENCE_SEED = 0


def run_invocation(workload, inv, spawner: Spawner) -> str:
    out_dir = os.path.join(OUT, "record", workload.name, inv.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(out_dir), exist_ok=True)
    cmd = [sys.executable, "-m", "magflow.cli"] + workload.argv(inv, REFERENCE_SEED, out_dir)
    res = spawner.run(cmd, out_dir + ".err")
    if res["rc"] != 0:
        raise SystemExit(f"{workload.name}/{inv.name} failed:\n{res['stderr']}")
    return out_dir


def main() -> int:
    with Spawner(child_env()) as spawner:
        manifest = record(spawner)
    with open(os.path.join(REF_DIR, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def record(spawner: Spawner) -> dict:
    manifest = {"reference_seed": REFERENCE_SEED, "files": {}}
    shutil.rmtree(REF_DIR, ignore_errors=True)
    for workload in WORKLOADS.values():
        for inv in workload.invocations:
            out_dir = run_invocation(workload, inv, spawner)
            dest = os.path.join(REF_DIR, workload.name, inv.name)
            os.makedirs(dest, exist_ok=True)
            for name in sorted(os.listdir(out_dir)):
                key = f"{workload.name}/{inv.name}/{name}"
                manifest["files"][key] = digest(os.path.join(out_dir, name))
                if name not in DIGEST_ONLY:
                    with open(os.path.join(out_dir, name), "rb") as src, \
                            lzma.open(os.path.join(dest, name + ".xz"), "wb", preset=9) as dst:
                        dst.write(src.read())
    return manifest


if __name__ == "__main__":
    sys.exit(main())
