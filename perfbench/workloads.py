"""The four benchmark workloads: the CLI invocations each one runs, and the
one-time structures its set-up builds.

Each workload is a closed loop with one client: its invocations run one at a
time, each in a fresh interpreter, exactly as a user types them.  The seed
reaches the program only through the CLI's own ``--seed`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    name: str      # short label, also the output sub-directory
    argv: tuple    # CLI arguments after ``python -m magflow.cli``; "{seed}" is filled in


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    setup: str     # Python run in a fresh interpreter to time set-up

    def argv(self, inv: Invocation, seed: int, out_dir: str) -> list:
        return [a.format(seed=seed) for a in inv.argv] + ["--out", out_dir]


_IMPORT = "import magflow.cli\n"
_GROUP = _IMPORT + "from magflow.surface import bolza_group\ngroup = bolza_group()\n"
# cold enumeration: a fresh interpreter has an empty lru_cache
_TRANSLATES = _GROUP + (
    "from magflow.flow import MagneticConfig\n"
    "from magflow.surface import translates_meeting_disk\n"
    "from magflow.torus import radius\n"
    "translates_meeting_disk(group, radius(MagneticConfig(1.0, 0.25)))\n"
)

# (B, E) = (1, 0.25) stays fixed in W1: the translate count jumps from 9 to 25
# between E = 0.25 and 0.26, so a seeded energy would change the workload.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bolza-density",
            (Invocation("density", ("density", "--surface", "bolza", "--grid", "60",
                                    "--B", "1", "--E", "0.25")),),
            _TRANSLATES,
        ),
        Workload(
            "cover-sample",
            (Invocation("density", ("density", "--grid", "300", "--B", "1", "--E", "0.25")),
             Invocation("sample", ("sample", "--n", "4000000", "--seed", "{seed}",
                                   "--B", "1", "--E", "0.25"))),
            _IMPORT,
        ),
        Workload(
            "equidist",
            (Invocation("equidist", ("equidist", "--T", "250", "--n", "50000",
                                     "--seed", "{seed}")),),
            _GROUP,
        ),
        Workload(
            "trajectory-ladder",
            (Invocation("flow", ("flow", "--dt", "1e-4", "--B", "1", "--E", "0.25")),
             Invocation("spectrum", ("spectrum", "--k", "200000", "--B", "1", "--E", "0.25"))),
            _IMPORT,
        ),
    )
}
