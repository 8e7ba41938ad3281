"""Smoke runs of the scripts under scripts/ at small sizes, in subprocesses.

The scripts call internal APIs, so a change to one of those shows here
before anyone runs a script by hand.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wicrep

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(wicrep.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                       capture_output=True, text=True, timeout=300, env=env)
    assert r.returncode == returncode, r.stdout + r.stderr
    return r.stdout.splitlines()


@pytest.mark.parametrize("name,args,last", [
    ("run_transfer.py", ("--seeds", 1, "--pretrain-epochs", 1, "--finetune-sentences", 60, "--max-epochs", 2),
     r"pretrained start no slower in [01]/1 seeds"),
    ("run_homograph.py", ("--max-epochs", 1), r"total \d+\.\ds"),
    ("peak_memory.py", ("--d", 8), r"train_dev(\t\d+\.\d){2}\t\d+(\t\d+\.\d){2}"),
], ids=["run_transfer", "run_homograph", "peak_memory"])
def test_a_script_runs_to_its_last_line(name, args, last):
    lines = run_script(name, *args)
    assert re.fullmatch(last, lines[-1]), lines[-1]


@pytest.fixture(scope="module")
def digest(tmp_path_factory):
    out = tmp_path_factory.mktemp("digest") / "d8.npz"
    assert run_script("output_digest.py", "--out", out, "--d", 8) == [f"wrote {out}"]
    return out


def test_output_digest_finds_a_file_equal_to_itself(digest):
    lines = run_script("output_digest.py", "--compare", digest, digest)
    assert lines and all(re.fullmatch(r"\S+\tbitwise equal\tmax abs diff (0|nan)", line) for line in lines), lines


def test_output_digest_exits_1_when_one_value_differs(digest, tmp_path):
    with np.load(digest) as f:
        arrays = dict(f)
    arrays["loss"] = np.nextafter(arrays["loss"], np.inf)  # one bit of one value
    changed = tmp_path / "changed.npz"
    np.savez_compressed(changed, **arrays)
    lines = run_script("output_digest.py", "--compare", digest, changed, returncode=1)
    assert [line.split("\t")[:2] for line in lines if "bitwise equal" not in line] == [["loss", "differs"]]
