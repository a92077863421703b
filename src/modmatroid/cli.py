"""Command line surface.

Every pipeline is reachable from one executable with subcommands; input
documents arrive as JSON files (or ``-`` for stdin) and results go to
stdout.  Exit codes: 0 for OK / true, 1 for a verified negative (an
axiom violation, a failed tropical relation, an oracle disagreement),
2 for usage or parse errors, including a library precondition like an
input that would first need essentializing (``error: <message>`` on
stderr), 3 for an internal failure (a witness search out of budget, a
failed consistency check), 4 for an undecided square (no-witness-pair:
the witness search found no pair, and N0's p-part has order above 64,
past exhaustive search, so this does not prove that none exists).
"""

from __future__ import annotations

import argparse
import math
import sys

from .abgroups import (
    INF,
    FgAbGroup,
    factorize,  # not called here; perfbench/spans.py traces calls through this name
    is_probable_prime,
)
from .duality import dual, gale_dual
from .jsonio import (
    dumps,
    emit_matroid_document,
    emit_realization_document,
    load_path,
    parse_matroid_document,
    parse_realization_document,
)
from .matroids import (
    MatroidError,
    ZMatroid,
    contract,
    delete,
    essentialize,
    from_realization,
    is_matroid,  # not called here; perfbench/spans.py traces calls through this name
    localize_matroid,
    subset_keys,
    verify,
)
from .oracle import TRIAL_GUARD, abelian_p_groups, pushout_oracle, surjection_oracle
from .qam import check_axioms, to_qam
from .surjections import check_m1, check_square
from .tropical import (
    dressian_check,
    flag_pluecker_scan,
    format_height,
    heights,
    single_exchange_check,
    valuated_matroid_check,
)
from .tutte import (
    arithmetic_tutte,
    classical_tutte,
    poly_render,
    quasi_tutte_eval,
    tutte_class,
)


def _horizon(text: str):
    if text.upper() == "INF":
        return INF
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("horizon must be at least 1 or INF")
    return n


def _prime(text: str) -> int:
    p = int(text)
    if not is_probable_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not prime")
    return p


def _max_order(text: str) -> int:
    # pushout_oracle's bound on the order of N0; oracle-verify's time grows with it
    n, most = int(text), math.isqrt(TRIAL_GUARD)
    if not 1 <= n <= most:
        raise argparse.ArgumentTypeError(f"max order must be from 1 to {most}")
    return n


def _labels_arg(text: str) -> list[str]:
    return [a for a in text.split(",") if a]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="modmatroid",
        description="exact module tables over the integers: verification, "
        "duality, Tutte invariants, tropical checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_, doc="matroid"):
        p = sub.add_parser(name, help=help_)
        if doc:
            p.add_argument("input", help=f"{doc} document (JSON path or -)")
        return p

    add("check", "verify the axiom on a matroid document")
    add("realize", "build the table of a vector configuration", doc="realization")
    add("dual", "dual table of a verified matroid")
    add("galedual", "Gale dual of a realization", doc="realization")
    p = add("minor", "delete and contract labels")
    # repeated flags add up, in the order given
    p.add_argument("--delete", type=_labels_arg, action="extend", default=[], metavar="L[,L..]")
    p.add_argument("--contract", type=_labels_arg, action="extend", default=[], metavar="L[,L..]")
    add("essentialize", "strip the shared free summand (split rank on stderr)")
    p = add("tutte", "Tutte-Grothendieck class or a polynomial specialization")
    p.add_argument("--form", choices=("class", "classical", "arithmetic"),
                   default="class")
    p = add("quasi", "quasi-polynomial evaluation at an integer point")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    add("qam", "rank and multiplicity data with axiom check")
    p = add("localize", "entrywise localization at a prime")
    p.add_argument("--p", type=_prime, required=True)
    p = add("dressian", "single-element exchange relations on r-subsets")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--n", type=_horizon, required=True)
    p.add_argument("--r", type=int, default=None)
    p = add("flagscan", "exhaustive exchange sweep, reported as evidence")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--n", type=_horizon, required=True)
    p.add_argument("--log", default=None, metavar="FILE")
    p = add("valuated", "basis exchange with torsion-length valuations")
    p.add_argument("--p", type=_prime, required=True)
    p = add("oracle-verify", "closed-form criteria against exhaustive search",
            doc=None)
    p.add_argument("--max-order", type=_max_order, default=64)
    return ap


def _load_matroid(path: str) -> ZMatroid:
    m, warnings = parse_matroid_document(load_path(path))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return m


def _verified(path: str) -> ZMatroid:
    return verify(_load_matroid(path))


def _print_tropical(verdict, limit: int = 20) -> int:
    if verdict.ok:
        print("OK")
        return 0
    for v in verdict.violations[:limit]:
        terms = ", ".join(map(format_height, v.terms))
        print(f"violation {v.relation}: terms [{terms}], unique minimum {v.argmin}")
    more = len(verdict.violations) - limit
    if more > 0:
        print(f"... and {more} more")
    return 1


def _cmd_oracle_verify(max_order: int) -> int:
    pair_checks = 0
    square_checks = 0
    bad = 0
    for p in (2, 3, 5, 7):
        groups = abelian_p_groups(p, max_order)
        for src in groups:
            for dst in groups:
                pair_checks += 1
                if check_m1(src, dst).ok != surjection_oracle(src, dst, max_order):
                    bad += 1
                    print(f"disagreement: surjection {src} -> {dst}")
    for p, cap in ((2, 32), (3, 27)):
        groups = abelian_p_groups(p, min(max_order, cap))
        for n0 in groups:
            for n1 in groups:
                for n2 in groups:
                    for n12 in groups:
                        square_checks += 1
                        lhs = check_square(n0, n1, n2, n12).ok
                        rhs = pushout_oracle(n0, n1, n2, n12, max_order)
                        if lhs != rhs:
                            bad += 1
                            print(
                                "disagreement: square "
                                f"({n0}; {n1}, {n2}; {n12}) closed-form={lhs}"
                            )
    print(f"surjection pairs checked: {pair_checks}")
    print(f"squares checked: {square_checks}")
    print(f"disagreements: {bad}")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = args.command
    try:
        if cmd == "check":
            _verified(args.input)
            print("OK")
            return 0

        if cmd == "realize":
            r = parse_realization_document(load_path(args.input))
            print(dumps(emit_matroid_document(from_realization(r))))
            return 0

        if cmd == "dual":
            print(dumps(emit_matroid_document(dual(_verified(args.input)))))
            return 0

        if cmd == "galedual":
            r = parse_realization_document(load_path(args.input))
            print(dumps(emit_realization_document(gale_dual(r))))
            return 0

        if cmd == "minor":
            m = _load_matroid(args.input)
            try:
                for a in args.delete:
                    m = delete(m, a)
                for a in args.contract:
                    m = contract(m, a)
            except KeyError as exc:  # a label not (or no longer) in the ground set
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 2
            print(dumps(emit_matroid_document(m)))
            return 0

        if cmd == "essentialize":
            m, split = essentialize(_verified(args.input))
            print(f"split_rank={split}", file=sys.stderr)
            print(dumps(emit_matroid_document(m)))
            return 0

        if cmd == "tutte":
            t = tutte_class(_verified(args.input))
            if args.form == "class":
                for (cork, nullity, tag), coeff in t.sorted_terms():
                    tags = ",".join(str(f) for f in tag)
                    print(f"{coeff} * X^{cork} Y^{nullity} T[{tags}]")
            elif args.form == "classical":
                print(poly_render(classical_tutte(t)))
            else:
                print(poly_render(arithmetic_tutte(t)))
            return 0

        if cmd == "quasi":
            print(quasi_tutte_eval(_verified(args.input), args.x, args.y))
            return 0

        if cmd == "qam":
            m = _verified(args.input)
            q = to_qam(m)
            for s, key in enumerate(subset_keys(q.labels)):
                print(f"A={{{key}}} rk={q.rk[s]} m={q.mult[s]}")
            verdict = check_axioms(q)
            if verdict.ok:
                print("OK")
                return 0
            print(f"violation {verdict.violation.axiom}: {verdict.violation.detail}")
            return 1

        if cmd == "localize":
            local = localize_matroid(_load_matroid(args.input), args.p)
            # each local module as a group with a prime-power chain
            entries = [FgAbGroup(d.rank, tuple(args.p**e for e in reversed(d.exps)))
                       for d in local.entries]
            as_groups = ZMatroid.from_code(local.labels, entries.__getitem__, local.code, False)
            print(dumps(emit_matroid_document(as_groups)))
            return 0

        if cmd == "dressian":
            h = heights(localize_matroid(_verified(args.input), args.p), args.n)
            if args.r is not None:
                verdict = dressian_check(h, args.r)
            else:
                verdict = single_exchange_check(h)
            return _print_tropical(verdict)

        if cmd == "flagscan":
            h = heights(localize_matroid(_verified(args.input), args.p), args.n)
            count = 0
            log = open(args.log, "w", encoding="utf-8") if args.log else None

            def counted(line: str) -> None:
                nonlocal count
                count += 1
                if log:
                    print(line, file=log)

            try:
                verdict = flag_pluecker_scan(h, counted)
            finally:
                if log:
                    log.close()
            print(f"relations={count} violations={len(verdict.violations)}")
            return _print_tropical(verdict) if not verdict.ok else 0

        if cmd == "valuated":
            verdict = valuated_matroid_check(localize_matroid(_verified(args.input), args.p))
            return _print_tropical(verdict)

        if cmd == "oracle-verify":
            return _cmd_oracle_verify(args.max_order)

    except MatroidError as exc:  # a ValueError, so ahead of the usage errors
        print(exc)
        return 4 if exc.violation.undecided else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError(f"unhandled command {cmd}")


def entry() -> None:
    sys.exit(main())
