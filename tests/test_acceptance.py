"""Acceptance gate: the twelve pinned criteria plus the orientation probe.

Each criterion lives in magflow.verify with its tolerance pinned there; the
`verify` CLI subcommand runs the same functions. A failure message carries
the measured value and the tolerance it missed.
"""

import pytest

from magflow import halfplane, verify
from magflow.verify import CHECKS


def run(check, **kw):
    result = check(**kw)
    # the name a result carries is the one `verify --only` takes for its check
    assert CHECKS.get(result["name"]) is check, f"{result['name']} is not the key of its check"
    assert result["passed"], (
        f"{result['name']}: measured {result['measured']!r} "
        f"vs tolerance {result['tolerance']!r} ({result['detail']})"
    )
    return result


class TestAcceptance:
    def test_01_periodicity(self):
        # 50 random subcritical pairs return to the start after T_E, residual < 1e-9
        run(verify.check_periodicity)

    def test_02_footpoint_radius(self):
        # swept radius equals arccosh((B^2+2E)/(B^2-2E)) within 1e-8, 20 pairs
        run(verify.check_footpoint_radius)

    def test_03_profile_derivatives(self):
        # phi'(T/2) within 1e-6 of 0; phi''(T/2) within 1e-4 of the closed form
        run(verify.check_profile_derivatives)

    def test_04_jacobian_identity(self):
        # finite-difference |det dPsi| matches 2E|b(t)| to 1e-4 at 100 points
        run(verify.check_jacobian_identity)

    def test_05_density_mass(self):
        # raw mass 2 pi T_E within 1%; normalized mass 1 within 1%
        run(verify.check_density_mass)

    def test_06_singularity_asymptotics(self):
        # slopes -1.00/-0.50 within 0.05; constants sqrt(2/E) within 1% and
        # 1.189207 within 2%
        run(verify.check_singularity_asymptotics)

    def test_07_mc_oracle(self):
        # 10^7 samples: ring densities within 5% of exact averages on the body
        run(verify.check_mc_oracle)

    def test_08_preimage_counts(self):
        # 2 inside / 1 boundary / 0 outside over 10^3 probes; surface count
        # bounded by twice the translate count on a 100x100 grid
        run(verify.check_preimage_counts)

    # one grid row per block, and blocks of three rows with a last block of one
    @pytest.mark.parametrize("cells", [100, 3 * 100 + 5])
    def test_08_preimage_counts_do_not_depend_on_the_grid_blocks(self, monkeypatch, cells):
        want = verify.check_preimage_counts()
        monkeypatch.setattr(halfplane, "_GRID_CELLS", cells)
        assert verify.check_preimage_counts() == want

    def test_09_lyapunov_trichotomy(self):
        # < 1e-3 through the critical energy, sqrt(2E-B^2)/2 +- 1e-3 above
        run(verify.check_lyapunov_trichotomy)

    def test_10_spectrum_ladder(self):
        # argmin selection matches brute force for k <= 500; k * top gap bounded
        run(verify.check_spectrum_ladder)

    def test_11_bolza_integrity(self):
        # relation residual < 1e-9, area 4 pi within 1e-6, 10^3 round trips
        run(verify.check_bolza_integrity)

    def test_12_equidistribution(self):
        # Birkhoff averages at T = 2000 within 5% of the area average, 3 starts
        run(verify.check_equidistribution)


class TestFlowOracle:
    def test_oracle_pair_agrees(self):
        # closed-form flow and the independent integrator track each other
        run(verify.check_flow_oracle)

    def test_orientation_flip_is_detected(self):
        # mutation probe: flipping the magnetic orientation must break the pair
        result = verify.check_flow_oracle(j_sign=-1.0)
        assert result["passed"] is False
        assert result["measured"]["max_divergence"] > 1e-2


def test_cli_runs_every_criterion():
    assert list(CHECKS) == [
        "periodicity",
        "footpoint-radius",
        "profile-derivatives",
        "jacobian-identity",
        "density-mass",
        "singularity-asymptotics",
        "mc-oracle",
        "preimage-counts",
        "lyapunov-trichotomy",
        "spectrum-ladder",
        "bolza-integrity",
        "equidistribution",
        "flow-oracle",
    ]
    assert CHECKS["flow-oracle"] is verify.check_flow_oracle
