"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single pass/fail
line with its runtime; the report fixture suspends output capture so the
lines reach the terminal on plain `pytest -v` runs.  Budgets mirror the
stated limits: criterion 1 under 1 s, criterion 2 under 30 s, criterion 3
under 60 s, whole file under 3 min.
"""

import contextlib
import io
import json
import math
import random
import re
import time

import pytest

from modmatroid.abgroups import INF, FgAbGroup, TRIVIAL
from modmatroid.cli import main
from modmatroid.duality import dual, gale_dual
from modmatroid.intmat import matmul, shape, smith_normal_form, det, is_unimodular
from modmatroid.jsonio import dumps
from modmatroid.matroids import (
    Realization,
    ZMatroid,
    contract,
    delete,
    essentialize,
    from_realization,
    generic_rank,
    is_matroid,
    localize_matroid,
    matroid_support_primes,
    random_realization,
)
from modmatroid.oracle import abelian_p_groups, pair_quotient_map, pushout_oracle, surjection_oracle
from modmatroid.qam import check_axioms, to_qam
from modmatroid.surjections import cyclic_surjection_exists, square_exists
from modmatroid.tropical import (
    flag_pluecker_scan,
    heights,
    single_exchange_check,
    three_term_check,
    valuated_matroid_check,
)
from modmatroid.tutte import (
    arithmetic_tutte,
    classical_tutte,
    poly_eval,
    poly_render,
    quasi_tutte_eval,
    tutte_class,
)
from tables import direct_sum, dual_dvr, generic_loops_coloops, relabel

_T0 = time.monotonic()


@pytest.fixture()
def report(capfd):
    def _report(num: int, detail: str, started: float, budget: float | None = None):
        elapsed = time.monotonic() - started
        over = budget is not None and elapsed >= budget
        word = "FAIL" if over else "PASS"
        line = f"criterion {num:2d} {word} ({elapsed:6.2f}s) {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert not over, f"criterion {num} exceeded {budget}s: {elapsed:.2f}s"

    return _report


@pytest.fixture(scope="module")
def suite():
    rng = random.Random(20260813)
    out = []
    for _ in range(200):
        r = random_realization(rng, max_dim=4, max_labels=6, max_entry=9)
        out.append((r, from_realization(r)))
    return out


def _run_cli(argv, doc, tmp_path, name):
    path = tmp_path / name
    path.write_text(dumps(doc), encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + [str(path)])
    return code, buf.getvalue()


def test_criterion_01_worked_example(tmp_path, report):
    started = time.monotonic()
    bad = {
        "ground_set": ["1", "2"],
        "modules": {
            "": {"torsion": [8]},
            "1": {"torsion": [2]},
            "2": {"torsion": [2]},
            "1,2": {},
        },
    }
    code, out = _run_cli(["check"], bad, tmp_path, "bad.json")
    assert code == 1
    assert out.strip().startswith("violation A={} b=1 c=2:")
    good = {
        "ground_set": ["1", "2"],
        "modules": {
            "": {"torsion": [2, 4]},
            "1": {"torsion": [2]},
            "2": {"torsion": [2]},
            "1,2": {},
        },
    }
    code, out = _run_cli(["check"], good, tmp_path, "good.json")
    assert code == 0 and out.strip() == "OK"
    real = {
        "ambient_relations": [[4, 0], [0, 2]],
        "generators": {"1": [1, 0], "2": [1, 1]},
    }
    code, out = _run_cli(["realize"], real, tmp_path, "real.json")
    assert code == 0
    emitted = json.loads(out)
    assert emitted["modules"] == {
        "": {"rank": 0, "torsion": [2, 4]},
        "1": {"rank": 0, "torsion": [2]},
        "2": {"rank": 0, "torsion": [2]},
        "1,2": {"rank": 0, "torsion": []},
    }
    table = from_realization(Realization(("1", "2"), [[4, 0], [0, 2]], [[1, 1], [0, 1]])).table
    assert table == (FgAbGroup(0, (2, 4)), FgAbGroup(0, (2,)), FgAbGroup(0, (2,)), TRIVIAL)
    report(1, "rejects (Z/8,Z/2,Z/2,0) at (A,b,c)=({},1,2); accepts and realizes the good table", started, budget=1.0)


def test_criterion_02_realizability_closure(suite, report):
    started = time.monotonic()
    sums = 0
    for r, m in suite:
        assert is_matroid(m).ok, f"realization table failed: {r}"
        for a in m.labels:
            assert is_matroid(delete(m, a)).ok
            assert is_matroid(contract(m, a)).ok
    for (_, m1), (_, m2) in zip(suite, suite[1:]):
        if len(m1.labels) + len(m2.labels) > 9:
            continue
        m2r = relabel(m2, {a: a + "'" for a in m2.labels})
        assert is_matroid(direct_sum(m1, m2r)).ok
        sums += 1
    report(2, f"200 realizations, all deletions/contractions, {sums} pairwise direct sums all satisfy the axiom", started, budget=30.0)


def test_criterion_03_oracle_equivalence(report):
    started = time.monotonic()
    pair_checks = 0
    for p in (2, 3, 5, 7):
        groups = abelian_p_groups(p, 64)
        for src in groups:
            for dst in groups:
                pair_checks += 1
                assert cyclic_surjection_exists(src, dst) == surjection_oracle(src, dst, 64), (
                    f"surjection disagreement {src} -> {dst}"
                )
    square_checks = 0
    spot = random.Random(7)
    for p, bound in ((2, 32), (3, 27)):
        groups = abelian_p_groups(p, bound)
        for n0 in groups:
            possible = pair_quotient_map(n0)
            for n1 in groups:
                for n2 in groups:
                    members = possible.get((n1, n2), frozenset())
                    for n12 in groups:
                        square_checks += 1
                        truth = n12 in members
                        assert square_exists(n0, n1, n2, n12) == truth, (
                            f"square disagreement ({n0}; {n1}, {n2}; {n12})"
                        )
                        # tie the batched truth back to the one-shot oracle
                        if spot.random() < 0.002:
                            assert pushout_oracle(n0, n1, n2, n12, bound) == truth
    report(3, f"{pair_checks} surjection pairs and {square_checks} squares, zero disagreements", started, budget=60.0)


def _smallest_prime_outside(support: tuple[int, ...]) -> int:
    c = 2
    while True:
        if c not in support and all(c % q for q in range(2, int(c**0.5) + 1)):
            return c
        c += 1


def test_criterion_04_duality(suite, report):
    started = time.monotonic()
    for r, m in suite:
        d = dual(m)
        full = m.full
        r0 = m.table[0].rank
        for s in range(full + 1):
            g, gd = m.table[s], d.table[full ^ s]
            assert gd.factors == g.factors
            assert gd.rank == g.rank + bin(s).count("1") - r0
        assert dual(d).table == essentialize(m)[0].table
        support = matroid_support_primes(m)
        off = _smallest_prime_outside(support)
        for p in support + (off,):
            assert localize_matroid(d, p) == dual_dvr(localize_matroid(m, p))
        assert from_realization(gale_dual(r)).table == d.table
    report(4, "torsion transfer, rank shift, double dual, localization, and Gale duality hold on the criterion 2 suite", started)


def test_criterion_05_tutte_identities(suite, report):
    started = time.monotonic()
    checked = 0
    for _, m in suite:
        me = essentialize(m)[0]
        t = tutte_class(me)
        assert t.mass == 1 << len(me.labels)
        loops, coloops = generic_loops_coloops(me)
        for a in me.labels:
            if a in loops or a in coloops:
                continue
            lhs = tutte_class(essentialize(delete(me, a))[0]) + tutte_class(
                essentialize(contract(me, a))[0]
            )
            assert lhs.terms == t.terms
            checked += 1
    sums = 0
    for (_, m1), (_, m2) in zip(suite, suite[1:]):
        if len(m1.labels) + len(m2.labels) > 9:
            continue
        e1 = essentialize(m1)[0]
        e2 = relabel(essentialize(m2)[0], {a: a + "'" for a in m2.labels})
        assert tutte_class(direct_sum(e1, e2)).terms == (tutte_class(e1) * tutte_class(e2)).terms
        sums += 1
    report(5, f"deletion-contraction on {checked} elements, multiplicativity on {sums} sums, shared tags asserted", started)


def test_criterion_06_specializations(suite, report):
    started = time.monotonic()
    for _, m in suite:
        me = essentialize(m)[0]
        assert classical_tutte(tutte_class(me)) == _rank_tutte(me)
    u12 = from_realization(Realization(("a", "b"), [[]], [[1, 1]]))
    assert poly_render(classical_tutte(tutte_class(u12))) == "x + y"
    good = from_realization(Realization(("1", "2"), [[4, 0], [0, 2]], [[1, 1], [0, 1]]))
    assert poly_render(arithmetic_tutte(tutte_class(good))) == "y^2 + 2*y + 5"
    assert poly_render(classical_tutte(tutte_class(good))) == "y^2"
    report(6, "classical specialization equals the generic-rank Tutte polynomial; frozen examples match", started)


def _rank_tutte(m: ZMatroid) -> dict:
    rk = generic_rank(m)
    full = m.full
    out: dict = {}
    for s in rk:
        c = rk[full] - rk[s]
        n = bin(s).count("1") - rk[s]
        for i in range(c + 1):
            xi = math.comb(c, i) * (-1) ** (c - i)
            for j in range(n + 1):
                v = xi * math.comb(n, j) * (-1) ** (n - j)
                k = (i, j)
                t = out.get(k, 0) + v
                if t:
                    out[k] = t
                else:
                    out.pop(k, None)
    return out


def test_criterion_07_quasi_interpolation(suite, report):
    started = time.monotonic()
    for _, m in suite:
        me = essentialize(m)[0]
        t = tutte_class(me)
        cl, ar = classical_tutte(t), arithmetic_tutte(t)
        mults = [math.prod(tag) for (_, _, tag) in t.terms]
        for x in range(-5, 6):
            for y in range(-5, 6):
                q = (x - 1) * (y - 1)
                v = quasi_tutte_eval(me, x, y)
                assert isinstance(v, int)
                if all(q % mu == 0 for mu in mults):
                    assert v == poly_eval(ar, x, y)
                if all(math.gcd(q, mu) == 1 for mu in mults):
                    assert v == poly_eval(cl, x, y)
    report(7, "quasi-polynomial matches arithmetic/classical values at all aligned points, |x|,|y| <= 5", started)


def test_criterion_08_qam_axioms(suite, report):
    started = time.monotonic()
    for _, m in suite:
        assert check_axioms(to_qam(m)).ok
    report(8, "quasi-arithmetic axioms A1/A2a/A2b hold exhaustively on the criterion 2 suite", started)


def test_criterion_09_tropical(suite, report):
    started = time.monotonic()
    height_checks = 0
    for _, m in suite:
        for p in matroid_support_primes(m):
            loc = localize_matroid(m, p)
            for n in (1, 2, 3, 4, 5, 6, INF):
                h = heights(loc, n)
                assert three_term_check(h).ok
                assert single_exchange_check(h).ok
                height_checks += 1
            if loc.table[loc.full].rank == 0:
                assert valuated_matroid_check(loc).ok
    relations = 0
    flag_violations = 0
    pat = re.compile(r"^RELATION [0-9a-z,']*\|[0-9a-z,']+\|[0-9a-z,']*\|[0-9a-z,']+ MIN (\d+|INF) COUNT \d+$")
    lines: list[str] = []
    for _, m in suite[:40]:
        if len(m.labels) > 5:
            continue
        for p in matroid_support_primes(m)[:1]:
            h = heights(localize_matroid(m, p), 2)
            v = flag_pluecker_scan(h, lines.append)
            flag_violations += len(v.violations)
    relations = len(lines)
    assert all(pat.match(line) for line in lines)
    # the full exchange family is conjectural: reported, not gated
    report(9, f"three-term/exchange/valuated OK over {height_checks} height functions; flag scan evidence: {relations} relations, {flag_violations} violations (not gated)", started)


def test_criterion_10_snf(report):
    started = time.monotonic()
    rng = random.Random(99)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-99, 99) for _ in range(cols)] for _ in range(rows)]
        s = smith_normal_form(mat)
        assert is_unimodular(s.u) and is_unimodular(s.v)
        assert matmul(matmul(s.u, mat), s.v) == s.diagonal(rows, cols)
        nonzero = [x for x in s.d if x]
        assert all(x > 0 for x in nonzero)
        assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
        assert len(nonzero) == len([x for x in s.d if x])
        if rows == cols:
            assert math.prod(s.d) == abs(det(mat))
    total = time.monotonic() - _T0
    report(10, f"500 random matrices: exact transforms, divisibility chain, determinant product (file total {total:.1f}s)", started)
    assert total < 180.0, f"acceptance file exceeded 3 minutes: {total:.1f}s"
