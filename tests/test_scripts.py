"""The scripts' exit codes: a bad horizon is a usage error (2), and a
quasi-arithmetic failure in the survey is a counted failure (1)."""

import os
import subprocess
import sys
from pathlib import Path

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
