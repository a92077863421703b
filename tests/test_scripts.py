"""The scripts' exit codes: a bad horizon or an argument out of range is
a usage error (2), and a quasi-arithmetic failure in the survey is a
counted failure (1)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _run(argv):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=ENV,
                          timeout=120)


def test_flag_evidence_rejects_a_horizon_below_one():
    for horizons in ("0", "2,0", "-1,INF"):
        done = _run([str(ROOT / "scripts" / "flag_evidence.py"), "--count", "1",
                     f"--horizons={horizons}"])
        assert done.returncode == 2 and done.stdout == "", horizons
        assert "horizon must be at least 1 or INF" in done.stderr, done.stderr
        assert "Traceback" not in done.stderr


BAD_ARGUMENTS = [
    ("flag_evidence.py", ["--max-labels", "9"], "--max-labels: 9 is not from 1 to 8"),
    ("flag_evidence.py", ["--max-labels", "0"], "--max-labels: 0 is not from 1 to 8"),
    ("flag_evidence.py", ["--count", "-1"], "--count: -1 is not at least 1"),
    ("flag_evidence.py", ["--count", "0"], "--count: 0 is not at least 1"),
    ("survey_realizations.py", ["--count", "0"], "--count: 0 is not at least 1"),
    ("survey_realizations.py", ["--max-dim", "0"], "--max-dim: 0 is not at least 1"),
    ("survey_realizations.py", ["--max-entry", "-1"], "--max-entry: -1 is not at least 0"),
    ("survey_realizations.py", ["--max-labels", "0"], "--max-labels: 0 is not from 1 to 16"),
    ("survey_realizations.py", ["--max-labels", "17"], "--max-labels: 17 is not from 1 to 16"),
    ("survey_realizations.py", ["--max-dim", "x"], "--max-dim: invalid integer value: 'x'"),
]


@pytest.mark.parametrize("script, argv, message", BAD_ARGUMENTS,
                         ids=[f"{s[:-3]}{'='.join(a)}" for s, a, _ in BAD_ARGUMENTS])
def test_scripts_reject_arguments_out_of_range(script, argv, message):
    done = _run([str(ROOT / "scripts" / script), "--count", "1", *argv])
    assert done.returncode == 2 and done.stdout == "", done.stderr
    assert message in done.stderr, done.stderr
    assert "Traceback" not in done.stderr


def test_survey_counts_qam_failures_toward_exit_1():
    script = str(ROOT / "scripts" / "survey_realizations.py")
    assert _run([script, "--count", "3"]).returncode == 0
    # the survey imports check_axioms by name, so it is replaced before the run
    forced = (
        "import runpy, sys\n"
        "from modmatroid import qam\n"
        "from modmatroid.matroids import Verdict\n"
        "qam.check_axioms = lambda q: Verdict((qam.QamViolation('A1', 'A={} b=a: forced'),))\n"
        f"sys.argv = [{script!r}, '--count', '3']\n"
        f"runpy.run_path({script!r}, run_name='__main__')\n"
    )
    done = _run(["-c", forced])
    assert done.returncode == 1, done.stderr
    assert done.stdout.count("UNEXPECTED quasi-arithmetic violation A1: A={} b=a: forced\n") == 3
    assert "quasi-arithmetic axioms OK: 0/3\n" in done.stdout
