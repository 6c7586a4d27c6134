import os
from pathlib import Path

import numpy as np
import pytest

from cornerlab import floquet, lattice

# The CLI tests run `python -m cornerlab.cli` in child processes, which see
# PYTHONPATH but not the `pythonpath` setting in pyproject.toml.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def bench_params():
    """Benchmark corner-mode parameter point on a 12x12 lattice."""
    return lattice.fig_s1_params(Nx=6, Ny=6)


@pytest.fixture(scope="session")
def bench_spectrum(bench_params):
    """Sambe spectrum of the 12x12 benchmark at M = 4 (shared, ~2 s)."""
    bdg = lattice.build_realspace_bdg(bench_params)
    sm = floquet.assemble_sambe(bdg, 4)
    return floquet.quasienergy_spectrum(sm)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)
