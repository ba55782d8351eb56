import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from plsphere import generators


@pytest.fixture(autouse=True)
def no_child_left():
    """Every child a test forks (``morse_spectrum`` workers) is reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def corpus():
    """The standard collection exercised by cross-module invariants."""
    out = {}
    for d in range(2, 11):
        out[f"simplex_{d}"] = generators.simplex(d)
    for d in range(3, 9):
        out[f"bd_simplex_{d}"] = generators.boundary_of_simplex(d)
    out["rp2_6"] = generators.rp2_6()
    for k in range(1, 6):
        out[f"saw_blade_{k}"] = generators.saw_blade(k)
    sd1 = generators.boundary_of_simplex(4).barycentric_subdivision()
    out["sd1_bd_simplex_4"] = sd1
    out["sd2_bd_simplex_4"] = sd1.barycentric_subdivision()
    return out


@pytest.fixture(scope="session")
def small_corpus(corpus):
    """Members cheap enough for per-face brute-force oracles."""
    keep = (
        "simplex_2", "simplex_3", "simplex_4",
        "bd_simplex_3", "bd_simplex_4", "bd_simplex_5",
        "rp2_6", "saw_blade_1", "saw_blade_2", "saw_blade_3",
    )
    return {k: corpus[k] for k in keep}
