"""Golden outputs: the current tree's outputs against the ones committed in tests/golden/.

scripts/output_digest.py --out wrote the golden file at a small scale
(d = d_h = 16, GOLDEN_WORDS source words, seed 0): batch_nll, context
vectors, predicted labels, export log-probabilities, the vectors lexsub
compares, every gradient, the parameters after two Adam steps and two
short train() runs. This test regenerates them and requires every value
to satisfy |got - golden| <= TOLERANCE * (1 + |golden|) (NaN matches NaN).
The tolerance leaves room for BLAS kernels that round differently on
another CPU or thread count (one BLAS thread against two changed the last
bits of 35 of the 140 arrays, by at most 5.3e-14 relative), and is fixed:
a change that moves an output on purpose regenerates the file (the command
is below) and says why.

    PYTHONPATH=src python3 scripts/output_digest.py --out tests/golden/outputs_d16_seed0.npz \\
        --d 16 --words 100 --seed 0

The test also reports whether every array is bitwise equal to the golden one.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "outputs_d16_seed0.npz"
GOLDEN_D, GOLDEN_WORDS, GOLDEN_SEED = 16, 100, 0
TOLERANCE = 1e-9


def output_digest():
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_committed_golden_file(pytestconfig):
    with np.load(GOLDEN) as golden:
        want = dict(golden)
    got = output_digest().outputs(GOLDEN_SEED, GOLDEN_D, GOLDEN_WORDS)
    assert sorted(got) == sorted(want)
    shapes = [name for name in want if got[name].shape != want[name].shape]
    assert shapes == [], f"shapes differ: {shapes}"
    off = {name: float(np.max(np.abs(got[name] - want[name]), initial=0.0))
           for name in want if not np.allclose(got[name], want[name], rtol=TOLERANCE, atol=TOLERANCE, equal_nan=True)}
    differ = [name for name in want if got[name].tobytes() != want[name].tobytes()]
    line = (f"[golden] {len(want)} arrays, "
            + ("all bitwise equal" if not differ else f"{len(differ)} not bitwise equal ({', '.join(differ[:5])})")
            + f", {len(off)} outside {TOLERANCE:g}")
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert off == {}, f"outside {TOLERANCE:g} (max abs diff per array): {off}"

