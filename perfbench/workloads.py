"""The workloads (realize, scans, cli): their inputs, jobs and expected outputs.

A job is one input taken through a workload's steps.  ``build_<name>`` does the
whole set-up (input generation, tables built from realizations, golden
load) and returns the jobs; the worker times them.  Every job returns
one line of text; it fails when it raises or when the line differs from
``expect``.  ``known`` marks jobs that the seed commit already fails, so
the benchmark can tell them from new failures.

Job shapes (labels, ambient dimension, relation columns) are fixed per
slot and only the entries come from the seed, so every seed asks for
about the same amount of work.  Why each workload looks the way it does
is recorded with its name in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

import gen
from modmatroid import cli, duality, matroids, qam, tropical, tutte
from modmatroid.abgroups import INF, FgAbGroup, canonicalize

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SCRATCH_DIR = ".bench_out"


@dataclass
class Job:
    name: str
    desc: str  # the input, printed when the job fails
    run: Callable[[], str]
    expect: str
    known: bool = False  # the seed commit fails this job too


def load_golden(workload: str, seed: int) -> dict:
    """Outputs the seed commit gave for this input variant, by job name."""
    path = os.path.join(GOLDEN_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(gen.variant(seed)), {})


def seed_output(golden: dict, name: str) -> str | None:
    """The seed commit's output for a job; None only while recording goldens."""
    if golden and name not in golden:
        raise KeyError(f"no golden output for job {name}")
    return golden.get(name)


def is_error(output: str) -> bool:
    return output.startswith("error ")


def realization(cfg: dict) -> matroids.Realization:
    return matroids.Realization(cfg["labels"], cfg["relations"], cfg["vectors"])


def describe(cfg: dict) -> str:
    return f"labels={''.join(cfg['labels'])} relations={cfg['relations']} vectors={cfg['vectors']}"


def verdict_text(m: matroids.ZMatroid, v: matroids.Verdict) -> str:
    return "OK" if v.ok else v.violation.describe(m.labels)


# --- realize: configurations to invariants -------------------------------

# (labels, ambient dimension, relation columns), three configurations of
# each.  (10, 4, 4) is all torsion (few distinct entries, SNF-bound);
# (10, 5, 2) keeps free rank 3 (hundreds of distinct entries, so the scan
# weighs as much as the SNFs); the other two lie between.  A job's time
# changes by about 20% with the seed's entries; twelve jobs of 0.15-0.9 s
# average that out and keep a batch near five seconds, so a run repeats
# every job several times.
REALIZE_SHAPES = ((10, 4, 4), (10, 5, 2), (10, 4, 2), (10, 5, 3)) * 3
REALIZE_SMOKE = ((8, 4, 4), (8, 5, 2))


def realize_job(r: matroids.Realization) -> str:
    m = matroids.from_realization(r)
    verdict = verdict_text(m, matroids.is_matroid(m))
    ess, _ = matroids.essentialize(m)
    duality.dual(ess)
    t = tutte.tutte_class(ess)
    classical = tutte.classical_tutte(t)
    tutte.arithmetic_tutte(t)
    qam.to_qam(ess)
    return f"{verdict} mass={t.mass} T(2,2)={tutte.poly_eval(classical, 2, 2)}"


def build_realize(seed: int, smoke: bool) -> list[Job]:
    golden = load_golden("realize", seed)
    jobs = []
    for i, (e, dim, n_rel) in enumerate(REALIZE_SMOKE if smoke else REALIZE_SHAPES):
        name = f"smoke{i}" if smoke else f"r{i}"
        cfg = gen.configuration(gen.rng_for("realize", seed, name), e, dim, n_rel)
        expect = f"OK mass={2**e} T(2,2)={2**e}"
        jobs.append(Job(name, describe(cfg), partial(realize_job, realization(cfg)),
                        expect, name in golden and golden[name] != expect))
    return jobs


# --- scans, part one: verification of given tables (golden/check.json) ---

# (name, labels, dimension, relation columns): generic realized tables.
# One label count for all six, so their perturbed copies (most of the
# jobs) form one latency group and the median job does not jump between
# groups from seed to seed; six tables average out how the seed's entries
# change the cost of a scan.
CHECK_GENERIC = (("a0", 11, 5, 3), ("a1", 11, 4, 4), ("a2", 11, 4, 2),
                 ("a3", 11, 5, 3), ("a4", 11, 4, 4), ("a5", 11, 4, 2))
# (name, p, labels, dimension, largest exponent, largest entry): ambient
# diag(p^k) with every k inside the exact caps of the square decision, so
# squares reach the supply audit and the witness search.
CHECK_PRIME_POWER = (("b0", 2, 8, 4, 9, 64), ("b1", 2, 8, 3, 9, 64),
                     ("b2", 3, 8, 4, 5, 40))
# Perturbed copies per base table, early to late in the scan, and the
# changes they make.  Most jobs are copies of the generic tables, so the
# median and the 90th-percentile job are among them; their change (two
# more free summands) is always caught at the first square that sees it,
# so their scan length depends on the slot alone, not on the seed.  The
# prime-power copies draw changes that fail in different ways.
COPIES = {"a": 12, "b": 8}
CHANGES = {"a": ("rank+2",), "b": ("torsion", "rank", "deepen")}
CHECK_SMOKE_BASES = ("b0",)
CHECK_SMOKE_COPIES = 4


def perturbed(m: matroids.ZMatroid, mask: int, kind: str, q: int) -> matroids.ZMatroid:
    g = m.table[mask]
    if kind in ("rank", "rank+2"):
        new = FgAbGroup(g.rank + (2 if kind == "rank+2" else 1), g.factors)
    elif kind == "deepen" and g.factors:
        new = canonicalize(g.factors[:-1] + (g.factors[-1] * q,), g.rank)
    else:
        new = canonicalize(g.factors + (q,), g.rank)
    table = m.table[:mask] + (new,) + m.table[mask + 1:]
    return matroids.ZMatroid(m.labels, table)


def check_job(m: matroids.ZMatroid) -> str:
    return verdict_text(m, matroids.is_matroid(m))


def build_check(seed: int, smoke: bool) -> list[Job]:
    golden = load_golden("check", seed)
    bases = []
    for name, e, dim, n_rel in CHECK_GENERIC:
        bases.append((name, gen.configuration(gen.rng_for("check", seed, name), e, dim, n_rel)))
    for name, p, e, dim, max_exp, max_entry in CHECK_PRIME_POWER:
        rng = gen.rng_for("check", seed, name)
        bases.append((name, gen.prime_power_configuration(rng, p, e, dim, max_exp, max_entry)))
    if smoke:
        bases = [b for b in bases if b[0] in CHECK_SMOKE_BASES]

    def accept(name, desc, m):
        # a realized table satisfies the axiom by construction
        return Job(name, desc, partial(check_job, m), "OK", golden.get(name, "OK") != "OK")

    jobs = []
    for name, cfg in bases:
        m = matroids.from_realization(realization(cfg))
        jobs.append(accept(name, describe(cfg), m))
        e = len(cfg["labels"])
        slots = COPIES[name[0]]
        for slot in range(CHECK_SMOKE_COPIES if smoke else slots):
            copy = f"{name}~{slot}"
            mask, kind, q = gen.perturbation(gen.rng_for("check", seed, copy), e, slot, slots,
                                             CHANGES[name[0]])
            expect = seed_output(golden, copy)
            jobs.append(Job(copy, f"{name} with entry {mask:#x} changed by {kind} q={q}",
                            partial(check_job, perturbed(m, mask, kind, q)),
                            expect or "", expect is not None and is_error(expect)))
    cfg = gen.KNOWN_NO_WITNESS_PAIR
    jobs.append(accept("known", describe(cfg), matroids.from_realization(realization(cfg))))
    return jobs


# --- scans, part two: QAM and tropical sweeps (golden/sweeps.json) -------

SWEEP_SHAPES = (("s0", 9, 4, 4),)
FLAG_LABELS = 8  # the flag scan refuses more than 8 labels
THEOREM_OK = ("qam=OK " + " ".join(f"three_term@{n}=OK exchange@{n}=OK dressian@{n}=OK"
                                     for n in (1, 2, "INF")) + " valuated=OK")


def _tropical(v: tropical.TropicalVerdict) -> str:
    return "OK" if v.ok else f"{len(v.violations)}-violations"


def sweep_job(m: matroids.ZMatroid) -> str:
    q = qam.check_axioms(qam.to_qam(m))
    parts = ["qam=" + ("OK" if q.ok else q.violation.axiom)]
    ess, _ = matroids.essentialize(m)
    primes = matroids.matroid_support_primes(ess)
    p = primes[0] if primes else 2
    loc = matroids.localize_matroid(ess, p)
    r = loc.table[0].rank
    for n in (1, 2, INF):
        h = tropical.heights(loc, n)
        label = "INF" if n is INF else n
        parts.append(f"three_term@{label}=" + _tropical(tropical.three_term_check(h)))
        parts.append(f"exchange@{label}=" + _tropical(tropical.single_exchange_check(h)))
        parts.append(f"dressian@{label}=" + _tropical(tropical.dressian_check(h, r)))
    parts.append("valuated=" + _tropical(tropical.valuated_matroid_check(loc)))
    small = ess
    for a in ess.labels[FLAG_LABELS:]:
        small = matroids.delete(small, a)
    relations = 0

    def count(line: str) -> None:
        nonlocal relations
        relations += 1

    h = tropical.heights(matroids.localize_matroid(small, p), 2)
    flag = tropical.flag_pluecker_scan(h, count)
    parts.append(f"flag={relations}/{len(flag.violations)}")
    return " ".join(parts)


def build_sweeps(seed: int, smoke: bool) -> list[Job]:
    golden = load_golden("sweeps", seed)
    jobs = []
    for name, e, dim, n_rel in SWEEP_SHAPES:
        cfg = gen.configuration(gen.rng_for("sweeps", seed, name), e, dim, n_rel)
        m = matroids.from_realization(realization(cfg))
        seen = seed_output(golden, name)
        # theorem-backed checks must pass; the flag scan is evidence, so
        # its counts are compared with the seed's
        flag = seen.rpartition(" ")[2] if seen and not is_error(seen) else "flag=?"
        expect = f"{THEOREM_OK} {flag}"
        jobs.append(Job(name, describe(cfg), partial(sweep_job, m), expect,
                        seen is not None and seen != expect))
    return jobs


def build_scans(seed: int, smoke: bool) -> list[Job]:
    """The square-checking scan and the subset-pair sweeps, no SNF in the jobs.

    They share one workload so that each run can last long enough to be
    steady within the benchmark's time budget; the per-layer metrics
    still tell the two apart.
    """
    return build_check(seed, smoke) + build_sweeps(seed, smoke)


# --- cli: the process and document layer ---------------------------------

# Document sets, nine commands each; set i has 4 + i % 5 labels.  The
# slowest tenth of the jobs, which sets job_p90_ms, is mostly commands on
# the 8-label sets, whose cost depends on the seed's entries.  With 11 sets
# two configurations decided it and job_p90_ms spread 0.18 over ten seeds;
# 22 sets put four in that group.
CLI_SETS = 22
CLI_BIG_LABELS = 16
BAD_DOCUMENT = {  # fails the axiom at the empty set: exit 1
    "ground_set": ["1", "2"],
    "modules": {
        "": {"rank": 0, "torsion": [8]},
        "1": {"rank": 0, "torsion": [2]},
        "2": {"rank": 0, "torsion": [2]},
        "1,2": {"rank": 0, "torsion": []},
    },
}


def matroid_document(m: matroids.ZMatroid) -> dict:
    modules = {}
    for mask, g in enumerate(m.table):
        key = ",".join(sorted(matroids.labels_of(m.labels, mask)))
        modules[key] = {"rank": g.rank, "torsion": list(g.factors)}
    return {"ground_set": list(m.labels), "modules": modules}


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def cli_output(code: int, stdout: bytes) -> str:
    return f"exit={code} stdout={hashlib.sha256(stdout).hexdigest()[:16]}"


def cli_subprocess(argv: list[str]) -> str:
    proc = subprocess.run([sys.executable, "-m", "modmatroid", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120)
    return cli_output(proc.returncode, proc.stdout)


def cli_inprocess(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the process would die with a traceback: exit 1
            code = 1
    return cli_output(code, out.getvalue().encode("utf-8"))


class CliFiles:
    """Input documents for one worker, in a directory removed on close."""

    def __init__(self):
        self.root = os.path.join(SCRATCH_DIR, f"cli-{os.getpid()}")
        os.makedirs(self.root, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


def build_cli(seed: int, smoke: bool, files: CliFiles, inprocess: bool) -> list[Job]:
    golden = load_golden("cli", seed)
    runner = cli_inprocess if inprocess else cli_subprocess
    specs = []  # (name, argv, description)
    for i in range(1 if smoke else CLI_SETS):
        e = 4 + i % 5
        dim = 2 + i % 3
        cfg = gen.configuration(gen.rng_for("cli", seed, f"set{i}"), e, dim, i % (dim + 1))
        real = _write(files.path(f"set{i}-real.json"),
                      json.dumps(gen.realization_document(cfg), indent=2))
        table = _write(files.path(f"set{i}-table.json"), json.dumps(
            matroid_document(matroids.from_realization(realization(cfg))), indent=2))
        a, b = cfg["labels"][:2]
        for cmd, argv in (
            ("realize", ["realize", real]),
            ("check", ["check", table]),
            ("dual", ["dual", table]),
            ("galedual", ["galedual", real]),
            ("minor", ["minor", table, "--delete", a, "--contract", b]),
            ("essentialize", ["essentialize", table]),
            ("tutte", ["tutte", table, "--form", "arithmetic"]),
            ("qam", ["qam", table]),
            ("localize", ["localize", table, "--p", "2"]),
        ):
            specs.append((f"set{i}-{cmd}", argv, f"{cmd} of {describe(cfg)}"))
    bad = _write(files.path("bad.json"), json.dumps(BAD_DOCUMENT, indent=2))
    specs.append(("bad-check", ["check", bad], f"check of {BAD_DOCUMENT}"))
    text = json.dumps(BAD_DOCUMENT, indent=2)
    broken = _write(files.path("broken.json"), text[: len(text) // 2])
    specs.append(("malformed-check", ["check", broken], "check of a truncated document"))
    if not smoke:
        big_doc = gen.table_document(gen.rng_for("cli", seed, "big"), CLI_BIG_LABELS)
        big = _write(files.path("big.json"), json.dumps(big_doc, indent=2))
        last = gen.LABELS[CLI_BIG_LABELS - 1]
        specs.append(("big-minor", ["minor", big, "--delete", last],
                      f"minor --delete {last} of a random {CLI_BIG_LABELS}-label table"))
        specs.append(("big-localize", ["localize", big, "--p", "2"],
                      f"localize --p 2 of a random {CLI_BIG_LABELS}-label table"))
    jobs = []
    for name, argv, desc in specs:
        expect = seed_output(golden, name)
        jobs.append(Job(name, desc, partial(runner, argv), expect or "",
                        expect is not None and is_error(expect)))
    return jobs
