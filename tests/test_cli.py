import io
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modmatroid import cli, surjections
from modmatroid.cli import build_parser, main
from modmatroid.jsonio import dumps, emit_matroid_document
from modmatroid.matroids import from_realization, random_realization, subset_key, subsets
from tables import assert_document_keys

GOOD_MATROID = {
    "ground_set": ["1", "2"],
    "modules": {
        "": {"rank": 0, "torsion": [2, 4]},
        "1": {"rank": 0, "torsion": [2]},
        "2": {"rank": 0, "torsion": [2]},
        "1,2": {"rank": 0, "torsion": []},
    },
}
BAD_MATROID = {
    "ground_set": ["1", "2"],
    "modules": {
        "": {"rank": 0, "torsion": [8]},
        "1": {"rank": 0, "torsion": [2]},
        "2": {"rank": 0, "torsion": [2]},
        "1,2": {"rank": 0, "torsion": []},
    },
}
# the smallest torsion failure: no element pair has the three quotients
TORSION_MATROID = {
    "ground_set": ["a", "b"],
    "modules": {
        "": {"rank": 0, "torsion": [2, 8]},
        "a": {"rank": 0, "torsion": [4]},
        "b": {"rank": 0, "torsion": [4]},
        "a,b": {"rank": 0, "torsion": [2]},
    },
}
# the same lifted by a free summand: every rank is 1, so the square is
# decided on its torsion parts, where no pair exists
LIFT_MATROID = {
    "ground_set": ["a", "b"],
    "modules": {
        "": {"rank": 1, "torsion": [2, 8]},
        "a": {"rank": 1, "torsion": [4]},
        "b": {"rank": 1, "torsion": [4]},
        "a,b": {"rank": 1, "torsion": [2]},
    },
}
GOOD_REAL = {
    "ambient_relations": [[4, 0], [0, 2]],
    "generators": {"1": [1, 0], "2": [1, 1]},
}
GCD_REAL = {"ambient_relations": [], "generators": {"1": [1], "2": [2], "3": [4]}}
# realizable, yet undecided: the witness search finds no pair for one square
NO_WITNESS_REAL = {
    "ambient_relations": [[256, 0, 0, 0], [0, 64, 0, 0], [0, 0, 16, 0], [0, 0, 0, 128]],
    "generators": {"e": [-64, -46, 24, 18], "f": [20, -43, 10, 63], "i": [-6, -61, -24, -58]},
}


@pytest.fixture
def run(tmp_path, capsys):
    def go(args, doc=None):
        argv = list(args)
        if doc is not None:
            path = tmp_path / "in.json"
            path.write_text(dumps(doc), encoding="utf-8")
            argv.append(str(path))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


def test_check_rejects(run):
    code, out, err = run(["check"], BAD_MATROID)
    assert code == 1
    assert out.strip() == "violation A={} b=1 c=2: L2a p=2 n=1"


def test_check_accepts(run):
    code, out, err = run(["check"], GOOD_MATROID)
    assert code == 0 and out.strip() == "OK"


def test_check_rejects_torsion_free_non_matroid(run):
    # generic rank function (0, 0, 0, 1) is not submodular; no prime divides
    # a torsion order, so the free ranks alone must decide
    doc = {"ground_set": ["a", "b"], "modules": {
        "": {"rank": 1, "torsion": []}, "a": {"rank": 1, "torsion": []},
        "b": {"rank": 1, "torsion": []}, "a,b": {"rank": 0, "torsion": []}}}
    code, out, _ = run(["check"], doc)
    assert code == 1 and out == "violation A={} b=a c=b: L2a n=1\n"


def test_check_names_a_single_element_violation(run):
    # Z/2+Z/2 -> 0 has a non-cyclic kernel: the b = c diagonal fails
    doc = {"ground_set": ["a"], "modules": {
        "": {"rank": 0, "torsion": [2, 2]}, "a": {"rank": 0, "torsion": []}}}
    code, out, _ = run(["check"], doc)
    assert code == 1 and out == "violation A={} b=a c=a: M1-local p=2 n=1\n"


def test_check_internal_failure_exits_3(run, monkeypatch):
    code, doc, _ = run(["realize"], NO_WITNESS_REAL)
    assert code == 0
    # a no-witness-pair is undecided, not a verified negative
    code, out, _ = run(["check"], json.loads(doc))
    assert code == 4 and out == "undecided A={e} b=f c=i: no-witness-pair p=2 n=7\n"
    code, out, _ = run(["dual"], json.loads(doc))
    assert code == 4 and out == "undecided A={e} b=f c=i: no-witness-pair p=2 n=7\n"
    # with no search budget the same decision raises instead
    monkeypatch.setattr(surjections, "_SEARCH_GUARD", 0)
    surjections.check_square.cache_clear()
    code, out, err = run(["check"], json.loads(doc))
    assert code == 3 and out == ""
    assert err == ("error: witness search budget exceeded; exponents too large"
                   " for the exact square decision\n")


@pytest.mark.parametrize("doc", [TORSION_MATROID, LIFT_MATROID], ids=["torsion", "lift"])
def test_check_exhaustive_no_pair_is_a_violation(run, doc):
    # the witness search misses, and N0's 2-part has order 16, so
    # exhaustive pair search decides: no pair exists, a verified negative
    code, out, _ = run(["check"], doc)
    assert code == 1 and out == "violation A={} b=a c=b: no-pair p=2 n=2\n"


@pytest.mark.parametrize("doc, code", [(BAD_MATROID, 1), (LIFT_MATROID, 1)],
                         ids=["non-matroid", "lift"])
def test_verifying_commands_print_the_check_line(run, doc, code):
    checked = run(["check"], doc)
    assert checked[0] == code and checked[1].startswith(("violation A=", "undecided A="))
    assert checked[1].count("\n") == 1 and checked[2] == ""
    assert run(["dual"], doc) == checked


def test_check_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(dumps(GOOD_MATROID)))
    assert main(["check", "-"]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_check_warns_on_canonicalization(run):
    doc = json.loads(json.dumps(GOOD_MATROID))
    doc["modules"][""] = {"rank": 0, "torsion": [4, 2]}
    code, out, err = run(["check"], doc)
    assert code == 0
    assert "warning: subset '': torsion canonicalized to [2, 4]" in err


def test_realize(run):
    code, out, err = run(["realize"], GOOD_REAL)
    assert code == 0
    assert json.loads(out) == GOOD_MATROID


def test_dual(run):
    code, out, err = run(["dual"], GOOD_MATROID)
    assert code == 0
    assert json.loads(out) == {
        "ground_set": ["1", "2"],
        "modules": {
            "": {"rank": 2, "torsion": []},
            "1": {"rank": 1, "torsion": [2]},
            "2": {"rank": 1, "torsion": [2]},
            "1,2": {"rank": 0, "torsion": [2, 4]},
        },
    }


def test_dual_rejects_non_matroid(run):
    code, out, err = run(["dual"], BAD_MATROID)
    assert code == 1
    assert out.strip() == "violation A={} b=1 c=2: L2a p=2 n=1"


def test_galedual(run):
    code, out, err = run(["galedual"], GOOD_REAL)
    assert code == 0
    assert json.loads(out) == {
        "ambient_relations": [[4, 0, 1, 1], [0, 2, 0, 1]],
        "generators": {"1": [0, 0, 1, 0], "2": [0, 0, 0, 1]},
    }


def test_minor(run):
    code, out, err = run(["minor", "--delete", "2"], GOOD_MATROID)
    assert code == 0
    assert json.loads(out) == {
        "ground_set": ["1"],
        "modules": {"": {"rank": 0, "torsion": [2, 4]}, "1": {"rank": 0, "torsion": [2]}},
    }
    code, out, err = run(["minor", "--contract", "2"], GOOD_MATROID)
    assert json.loads(out)["modules"] == {
        "": {"rank": 0, "torsion": [2]},
        "1": {"rank": 0, "torsion": []},
    }


def test_minor_flags_add_up_in_order(run):
    # a repeated flag used to keep only its last value
    doc = emit_matroid_document(from_realization(
        random_realization(random.Random(3), max_dim=3, n_labels=6)))
    once = run(["minor", "--delete", "f,b", "--contract", "a,e"], doc)
    assert once[0] == 0 and json.loads(once[1])["ground_set"] == ["c", "d"]
    assert run(["minor", "--delete", "f", "--delete", "b",
                "--contract", "a", "--contract", "e"], doc) == once
    # flags of one kind add up wherever they stand
    assert run(["minor", "--contract", "e", "--delete", "f,b", "--contract", "a"], doc) == once


@pytest.mark.parametrize("args", [
    ["--delete", "z"],
    ["--contract", "z"],
    ["--delete", "2", "--contract", "2"],  # gone after the deletion
])
def test_minor_unknown_label(run, args):
    code, out, err = run(["minor", *args], GOOD_MATROID)
    label = args[-1]
    assert code == 2 and out == ""
    assert err == f"error: unknown label '{label}'\n"


def test_essentialize(run):
    code, out, err = run(["essentialize"], GOOD_MATROID)
    assert code == 0
    assert "split_rank=0" in err
    assert json.loads(out) == GOOD_MATROID
    free = {
        "ground_set": ["a"],
        "modules": {"": {"rank": 2}, "a": {"rank": 1}},
    }
    code, out, err = run(["essentialize"], free)
    assert code == 0
    assert "split_rank=1" in err
    assert json.loads(out)["modules"] == {
        "": {"rank": 1, "torsion": []},
        "a": {"rank": 0, "torsion": []},
    }


def test_tutte_forms(run):
    code, out, err = run(["tutte", "--form", "class"], GOOD_MATROID)
    assert code == 0
    assert out.splitlines() == [
        "1 * X^0 Y^0 T[2,4]",
        "2 * X^0 Y^1 T[2]",
        "1 * X^0 Y^2 T[]",
    ]
    code, out, err = run(["tutte", "--form", "classical"], GOOD_MATROID)
    assert out.strip() == "y^2"
    code, out, err = run(["tutte", "--form", "arithmetic"], GOOD_MATROID)
    assert out.strip() == "y^2 + 2*y + 5"


def test_tutte_rejects_non_essential(run, tmp_path):
    free = {"ground_set": ["a"], "modules": {"": {"rank": 2}, "a": {"rank": 1}}}
    for args in (["tutte"], ["quasi", "--x", "2", "--y", "3"], ["valuated", "--p", "2"]):
        code, out, err = run(args, free)
        assert code == 2 and out == ""
        assert err == "error: input is not essential; essentialize first\n"


def test_quasi(run):
    code, out, err = run(["quasi", "--x", "3", "--y", "3"], GOOD_MATROID)
    assert code == 0 and out.strip() == "20"


def test_qam(run):
    code, out, err = run(["qam"], GOOD_MATROID)
    assert code == 0
    assert out.splitlines() == [
        "A={} rk=0 m=8",
        "A={1} rk=0 m=2",
        "A={2} rk=0 m=2",
        "A={1,2} rk=0 m=1",
        "OK",
    ]


def test_localize(run):
    code, out, err = run(["localize", "--p", "2"], GOOD_MATROID)
    assert code == 0
    assert json.loads(out) == GOOD_MATROID
    code, out, err = run(["localize", "--p", "3"], GOOD_MATROID)
    assert json.loads(out)["modules"][""] == {"rank": 0, "torsion": []}


def test_localize_rejects_composite(run, capsys, monkeypatch):
    # --p is tested for primality, not factorized
    def no_factorize(n):
        raise AssertionError("factorize called")

    monkeypatch.setattr(cli, "factorize", no_factorize)
    # 4, and the product of 10^24+7 and 3*10^24+7
    for p in ("4", "3000000000000000000000028000000000000000000000049"):
        with pytest.raises(SystemExit) as exc:
            run(["localize", "--p", p], GOOD_MATROID)
        assert exc.value.code == 2
        assert f"{p} is not prime" in capsys.readouterr().err
    code, out, err = run(["localize", "--p", "1000000000000000000000007"], GOOD_MATROID)
    assert code == 0
    assert json.loads(out)["modules"][""] == {"rank": 0, "torsion": []}


def test_dressian(run):
    code, out, err = run(["dressian", "--p", "2", "--n", "2"], GOOD_MATROID)
    assert code == 0 and out.strip() == "OK"
    for r in ("0", "1", "2"):
        code, out, err = run(["dressian", "--p", "2", "--n", "INF", "--r", r], GOOD_MATROID)
        assert code == 0 and out.strip() == "OK"


@pytest.mark.parametrize("r", ["99", "-3", "3"])
def test_dressian_rank_out_of_range(run, r):
    code, out, err = run(["dressian", "--p", "2", "--n", "2", "--r", r], GOOD_MATROID)
    assert code == 2 and out == ""
    assert err == "error: r must lie in 0..2\n"


def test_dressian_verifies_before_rank_check(run):
    code, out, err = run(["dressian", "--p", "2", "--n", "2", "--r", "99"], BAD_MATROID)
    assert code == 1 and out == "violation A={} b=1 c=2: L2a p=2 n=1\n"


def test_flagscan_rejects_more_than_eight_labels(run):
    labels = list("abcdefghi")
    doc = {"ground_set": labels,
           "modules": {subset_key(labels, s): {"rank": 0} for s in subsets(len(labels))}}
    code, out, err = run(["flagscan", "--p", "2", "--n", "2"], doc)
    assert code == 2 and out == ""
    assert err == "error: flag scan is capped at 8 labels\n"


def _unsorted_documents():
    """The realized 4-label table of random_realization(Random(3), max_dim=2,
    n_labels=4) with its ground set reversed, and the same table with the
    labels a, b, c, d renamed 9, 10, 11, 12, which sort as 10, 11, 12, 9."""
    doc = emit_matroid_document(from_realization(
        random_realization(random.Random(3), max_dim=2, n_labels=4)))
    names = dict(zip("abcd", ("9", "10", "11", "12")))
    numeric = {"ground_set": [names[a] for a in doc["ground_set"]],
               "modules": {",".join(sorted(names[a] for a in key.split(",") if a)): entry
                           for key, entry in doc["modules"].items()}}
    return dict(doc, ground_set=doc["ground_set"][::-1]), numeric


def test_flagscan_log_names_subsets_by_document_keys(run, tmp_path):
    log = tmp_path / "scan.log"
    logs = []
    for doc in _unsorted_documents():
        code, out, _ = run(["flagscan", "--p", "2", "--n", "2", "--log", str(log)], doc)
        lines = log.read_text(encoding="utf-8").splitlines()
        assert code == 0 and out == f"relations={len(lines)} violations=0\n"
        assert_document_keys([f.split(",") for line in lines for f in re.fullmatch(
            r"RELATION (.*) MIN \S+ COUNT \d+", line)[1].split("|") if f], doc["ground_set"])
        logs.append(lines)
    assert "RELATION |c,d|a|b MIN 0 COUNT 2" in logs[0]


def test_flagscan_with_log(run, tmp_path):
    log = tmp_path / "scan.log"
    code, out, err = run(
        ["flagscan", "--p", "2", "--n", "2", "--log", str(log)], GOOD_MATROID
    )
    assert code == 0
    assert out.strip() == "relations=2 violations=0"
    lines = log.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    pat = re.compile(r"^RELATION [0-9,]*\|[0-9,]+\|[0-9,]*\|[0-9,]+ MIN (\d+|INF) COUNT \d+$")
    for line in lines:
        assert pat.match(line), line


def test_valuated(run):
    code, out, err = run(["valuated", "--p", "2"], GOOD_MATROID)
    assert code == 0 and out.strip() == "OK"


def test_oracle_verify(run):
    code, out, err = run(["oracle-verify", "--max-order", "8"])
    assert code == 0
    lines = out.splitlines()
    assert "surjection pairs checked: 61" in lines
    assert "squares checked: 2417" in lines
    assert "disagreements: 0" in lines


def test_oracle_verify_refuses_a_max_order_past_the_bound(capsys):
    # 1000 is the order past which pushout_oracle refuses N0
    args = build_parser().parse_args(["oracle-verify", "--max-order", "1000"])
    assert args.max_order == 1000
    for value in ("1001", "4096", "ten"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-verify", "--max-order", value])
        assert exc.value.code == 2
        assert "argument --max-order" in capsys.readouterr().err


def test_oracle_verify_refuses_a_max_order_below_1(capsys):
    # no group has order below 1, so such a bound would check nothing
    assert build_parser().parse_args(["oracle-verify", "--max-order", "1"]).max_order == 1
    for value in ("0", "-1", "-64"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-verify", "--max-order", value])
        assert exc.value.code == 2
        assert "max order must be from 1 to 1000" in capsys.readouterr().err


def test_missing_file(run, capsys):
    code = main(["check", "/nonexistent/path.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    # an unwritable log is a usage error, not a verified negative
    code, out, err = run(
        ["flagscan", "--p", "2", "--n", "2", "--log", "/nonexistent/dir/x.log"], GOOD_MATROID
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "x.log" in err


def test_deeply_nested_document_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: malformed JSON: ")


@pytest.mark.parametrize("value, quoted", [
    ("7" * 5000, "'" + "7" * 27 + "..." + "7" * 27 + "' (5002 characters)"),
    (list(range(3000)), "[0, 1, 2, 3, 4, 5, 6, 7, 8, ...995, 2996, 2997, 2998, 2999] (16890 characters)"),
], ids=["5000-digit-string", "3000-item-list"])
def test_huge_rejected_value_is_quoted_short(run, value, quoted):
    # a 5,000-digit string is past the interpreter's 4,300-digit int limit
    doc = json.loads(json.dumps(GOOD_MATROID))
    doc["modules"]["1"]["torsion"] = [value]
    code, out, err = run(["check"], doc)
    assert code == 2 and out == ""
    assert err.startswith("error: subset '1' torsion: ") and err.endswith(f"{quoted}\n")
    assert len(err) < 150


def test_output_integer_past_the_digit_limit(run):
    # Z/(ab) with 4,001-digit a and b: an 8,001-digit torsion order at every subset
    a, b = 10**4000 + 1, 10**4000 + 3
    doc = {"ambient_relations": [[str(a), "0"], ["0", str(b)]], "generators": {"x": ["0", "0"]}}
    code, out, err = run(["realize"], doc)
    limit = sys.get_int_max_str_digits()
    assert (code, out) == (2, "")
    assert err == (f"error: subset '' torsion: an integer of 8001 digits, "
                   f"past the {limit}-digit limit on document integers\n")


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_integer_literal_past_the_digit_limit(tmp_path, monkeypatch, capsys, source):
    # json.load refuses a 5,000-digit number itself, before the document
    # parser sees it; the error names the limit and quotes no digits
    text = '{"ground_set": [], "modules": {"": {"torsion": [' + "7" * 5000 + "]}}}"
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(["check", "-" if source == "stdin" else str(path)])
    captured = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"error: an integer literal past the {limit}-digit limit"
                            " on document integers\n")


@pytest.mark.parametrize("doc, code, out", [
    (GOOD_MATROID, 0, "OK\n"),
    (BAD_MATROID, 1, "violation A={} b=1 c=2: L2a p=2 n=1\n"),
    (None, 2, ""),
], ids=["ok", "violation", "truncated"])
def test_python_m_modmatroid(tmp_path, doc, code, out):
    # runs __main__.py and cli.entry in a fresh interpreter
    path = tmp_path / "in.json"
    path.write_text(dumps(GOOD_MATROID)[:40] if doc is None else dumps(doc), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "modmatroid", "check", str(path)],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (code, out)
    assert done.stderr.startswith("error:") == (code == 2)


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_parser_lists_every_subcommand():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "check", "realize", "dual", "galedual", "minor", "essentialize",
        "tutte", "quasi", "qam", "localize", "dressian", "flagscan",
        "valuated", "oracle-verify",
    ):
        assert name in text


# --- the exit-code contract of every document subcommand on random and
# mutated documents ---
# Integers stay small: a large semiprime torsion order still makes
# factorize run for minutes, an open defect this test does not probe.

_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-20, 20) | st.text("0123456789-ab, ", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("ab,", max_size=2), inner, max_size=3),
    max_leaves=4,
)
_ENTRY = st.fixed_dictionaries({"rank": st.integers(0, 2),
                                "torsion": st.lists(st.integers(1, 12), max_size=2)})


@st.composite
def _check_documents(draw):
    """A random table or a realized one, edited up to twice, now and then replaced by junk."""
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=3))
        modules = {subset_key(labels, s): draw(_ENTRY) for s in subsets(len(labels))}
        doc = {"ground_set": labels, "modules": modules}
    else:
        rng = random.Random(draw(st.integers(0, 10_000)))
        r = random_realization(rng, max_dim=3, max_labels=3, max_entry=6)
        doc = emit_matroid_document(from_realization(r))
    for _ in range(draw(st.integers(0, 2))):
        modules = doc.get("modules")
        targets = [doc]
        if isinstance(modules, dict):
            targets.append(modules)
            targets += [v for v in modules.values() if isinstance(v, dict)]
        target = draw(st.sampled_from(targets))
        keys = sorted(target) + ["ground_set", "modules", "rank", "torsion", "", "a"]
        key = draw(st.sampled_from(keys))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(_JUNK | _ENTRY | st.lists(st.sampled_from("abc"), max_size=3))
    return draw(_JUNK) if draw(st.integers(0, 9)) == 0 else doc


_COMMANDS = [
    ["check"], ["qam"], ["dual"], ["essentialize"], ["tutte"], ["quasi", "--x", "2", "--y", "3"],
    ["localize", "--p", "2"], ["valuated", "--p", "2"], ["dressian", "--p", "2", "--n", "2"],
    ["flagscan", "--p", "2", "--n", "2"], ["minor", "--delete", "a"],
]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_check_documents(), cmd=st.sampled_from(_COMMANDS))
def test_check_exit_code_contract(tmp_path, capsys, doc, cmd):
    # every command but localize and minor reaches the scan through verify
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        code = main([*cmd, str(path)])
    except SystemExit as exc:
        raise AssertionError(f"{cmd[0]} raised SystemExit({exc.code})") from exc
    capsys.readouterr()
    assert code in (0, 1, 2, 4)
