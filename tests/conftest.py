import os
import random
from pathlib import Path

import pytest

from seqdecam.netlist import CamoCircuit, Completion, camouflage, parse_bench

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"

# pytest puts src/ on its own sys.path (pyproject.toml); the Python child
# processes some tests start (the pipe oracle) need it as well
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
)

S27_CELLS = ["G13", "G10"]  # a NAND and a NOR feeding only flip-flops
S27_SECRET = Completion((0, 1))  # G13 stays NAND, G10 stays NOR


def bench_path(name: str) -> Path:
    return BENCH_DIR / f"{name}.bench"


def load_bench(name: str):
    return parse_bench(bench_path(name).read_text(), name)


@pytest.fixture(scope="session")
def s27():
    return load_bench("s27")


@pytest.fixture(scope="session")
def s27_camo(s27) -> CamoCircuit:
    return camouflage(s27, S27_CELLS, ["NAND", "NOR"], reset_state=0)


@pytest.fixture(scope="session")
def identical_candidates_camo() -> tuple[CamoCircuit, Completion]:
    """k=1 cell whose candidates agree on the whole circuit: NAND(x,x) = NOR(x,x).

    Both completions are indistinguishable, so the unique-completion check
    can never succeed while combinational equivalence can.
    """
    c = parse_bench(
        """
        INPUT(a)
        OUTPUT(y)
        g = NAND(a, a)
        y = BUF(g)
        """,
        "twin",
    )
    return camouflage(c, ["g"], ["NAND", "NOR"]), Completion((0,))


@pytest.fixture(scope="session")
def unreachable_divergence_camo() -> tuple[CamoCircuit, Completion]:
    """Candidates XOR/OR agree at the only reachable state (s=0) but differ
    at the unreachable s=1, so combinational equivalence fails although
    every query set is discriminating."""
    c = parse_bench(
        """
        INPUT(a)
        OUTPUT(y)
        na = NOT(a)
        zero = AND(a, na)
        s = DFF(zero)
        y = XOR(s, a)
        """,
        "dead_state",
    )
    return camouflage(c, ["y"], ["XOR", "OR"]), Completion((0,))


@pytest.fixture
def rng():
    return random.Random(20240811)
