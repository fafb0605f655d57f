import json

import pytest

from redei import numthy
from redei.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_structure_json(capsys):
    code, out, _ = run_cli(
        capsys, "structure", "--q", "49", "--chi", "-1", "--m", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"1": 2, "4": 2, "20": 2}


def test_structure_identity_text(capsys):
    code, out, _ = run_cli(capsys, "structure", "--q", "49", "--chi", "-1", "--m", "1")
    assert code == 0
    assert "structure {1: 50}" in out


def test_structure_with_oracle(capsys):
    code, out, _ = run_cli(
        capsys,
        "structure", "--q", "49", "--chi", "-1", "--m", "7", "--verify",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["oracle"] == "agree"
    assert obj["structure"] == {"1": 2, "4": 12}
    assert obj["field"] == {"p": 7, "k": 2, "modulus": [1, 0, 1]}


def test_structure_with_explicit_parameter(capsys):
    code, out, _ = run_cli(
        capsys,
        "structure", "--q", "7", "--chi", "-1", "--m", "3", "--verify", "--a", "3",
    )
    assert code == 0 and "oracle: agree" in out


def test_structure_rejects_wrong_character_parameter(capsys):
    code, _, err = run_cli(
        capsys,
        "structure", "--q", "7", "--chi", "-1", "--m", "3", "--verify", "--a", "4",
    )
    assert code == 2 and "character" in err


def test_structure_rejects_noncoprime_index(capsys):
    code, _, err = run_cli(capsys, "structure", "--q", "49", "--chi", "-1", "--m", "5")
    assert code == 2 and "error" in err


def test_structure_accepts_p_k_form(capsys):
    code, out, _ = run_cli(
        capsys,
        "structure", "--p", "7", "--k", "2", "--chi", "-1", "--m", "3",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"1": 2, "4": 2, "20": 2}


def test_rejects_invalid_field(capsys):
    code, _, err = run_cli(capsys, "classes", "--q", "45", "--chi", "1")
    assert code == 2 and "odd prime power" in err
    code, _, _ = run_cli(capsys, "classes", "--q", "8", "--chi", "1")
    assert code == 2


def test_classes_json(capsys):
    code, out, _ = run_cli(
        capsys, "classes", "--q", "3", "--chi", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "q": 3,
        "chi": 1,
        "classes": [{"members": [1], "structure": {"1": 4}}],
    }


def test_classes_text_row_count(capsys):
    code, out, _ = run_cli(capsys, "classes", "--q", "49", "--chi", "1")
    assert code == 0
    assert out.startswith("q=49 chi=1 classes=10\n")
    assert len(out.strip().split("\n")) == 11


def test_pairs_csv(capsys):
    code, out, _ = run_cli(
        capsys, "pairs", "--q", "49", "--chi", "1", "--format", "csv"
    )
    assert code == 0
    assert out == (
        "m,n,line_offset\n"
        "5,29,24\n7,31,24\n11,35,24\n13,37,24\n19,43,24\n23,47,24\n"
    )


def test_pairs_output_is_byte_stable(capsys):
    first = run_cli(capsys, "pairs", "--q", "49", "--chi", "-1", "--format", "csv")
    second = run_cli(capsys, "pairs", "--q", "49", "--chi", "-1", "--format", "csv")
    assert first == second


def test_isolated_json(capsys):
    code, out, _ = run_cli(
        capsys, "isolated", "--q", "49", "--chi", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "q": 49,
        "chi": 1,
        "isolated": [1, 17, 25, 41],
        "count_formula": 4,
    }


def test_family_p_qmp1_large(capsys):
    code, out, _ = run_cli(
        capsys, "family", "p-qmp1", "--p", "3", "--twok", "60", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["applicable"] is True
    assert obj["chi"] == -1
    assert obj["structure"]["120"] == "353259652293468362590059312"


def test_family_quarter_with_verify(capsys):
    code, out, _ = run_cli(
        capsys, "family", "quarter", "--q", "49", "--chi", "1", "--verify"
    )
    assert code == 0
    assert "pair=(13, 37)" in out
    assert "cross-check: agree" in out


def test_family_verify_at_huge_q(capsys):
    code, out, _ = run_cli(
        capsys, "family", "p-qmp1", "--p", "3", "--twok", "60", "--verify"
    )
    assert code == 0
    assert "cross-check: agree" in out


def test_family_pm2_degenerate(capsys):
    code, out, _ = run_cli(capsys, "family", "pm2", "--q", "7", "--chi", "1")
    assert code == 0
    assert "pair=(1, 1)" in out


def test_family_precondition_exit_code(capsys):
    code, _, err = run_cli(capsys, "family", "quarter", "--q", "11", "--chi", "1")
    assert code == 4 and "mod 8" in err
    code, _, _ = run_cli(capsys, "family", "frobenius", "--p", "3", "--chi", "-1")
    assert code == 4


def test_family_malformed_arguments_exit_code(capsys):
    for argv in (
        ("frobenius", "--p", "4", "--k", "3", "--l1", "1", "--l2", "2", "--chi", "1"),
        ("frobenius", "--p", "3", "--k", "1", "--l1", "1", "--l2", "1", "--chi", "1"),
        ("frobenius", "--p", "3", "--k", "3", "--l1", "1", "--l2", "3", "--chi", "1"),
        ("p-qmp1", "--p", "3", "--q", "10"),
        ("quarter", "--q", "45", "--chi", "1"),
    ):
        code, _, err = run_cli(capsys, "family", *argv)
        assert code == 2 and "error" in err, argv


def test_family_frobenius(capsys):
    code, out, _ = run_cli(
        capsys,
        "family", "frobenius", "--p", "3", "--k", "2", "--l1", "1", "--l2", "1",
        "--chi", "-1", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["structure"] == {"1": "2", "4": "2"}


def test_verify_small_sweep(capsys, monkeypatch):
    monkeypatch.setenv("REDEI_THREADS", "1")
    code, out, _ = run_cli(capsys, "verify", "--qmax", "9")
    assert code == 0
    assert "formula_vs_bruteforce" in out
    assert "all properties hold" in out


def test_verify_pool_output_matches_serial(capsys, monkeypatch):
    # The pool runs fields largest first and the two whole-range sweeps
    # beside them; the printed rows must not depend on that.
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("REDEI_THREADS", threads)
        code, out, _ = run_cli(capsys, "verify", "--qmax", "50", "--workers", "2")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert "cross_field_correspondence" in outs[1] and "families" in outs[1]


def test_verify_rejects_bad_thread_cap(capsys, monkeypatch):
    for value in ("abc", "0"):
        monkeypatch.setenv("REDEI_THREADS", value)
        code, out, err = run_cli(capsys, "verify", "--qmax", "9")
        assert code == 2 and "REDEI_THREADS" in err and out == ""


def test_verify_rejects_large_qmax(capsys):
    code, _, err = run_cli(capsys, "verify", "--qmax", "1000")
    assert code == 2 and "qmax" in err


@pytest.fixture
def broken_factorization(monkeypatch):
    # A rho stage that records every composite it is given as prime.
    numthy.factorize.cache_clear()
    monkeypatch.setattr(numthy, "_factor_into", lambda n, counts: counts.update({n: 1}))
    yield
    numthy.factorize.cache_clear()


def test_failed_factorization_exits_2(capsys, broken_factorization):
    # q - 1 = 48 * 3317044064679887385961981, a strong pseudoprime to the
    # twelve Miller-Rabin bases; the check must catch it.
    q = "159218115104634594526175089"
    n = str(int(q) - 1)
    code, out, err = run_cli(capsys, "structure", "--q", q, "--chi", "1", "--m", "43")
    assert code == 2 and out == "" and n in err
    code, out, err = run_cli(
        capsys, "family", "quarter", "--q", q, "--chi", "1", "--verify"
    )
    assert code == 2 and out == "" and n in err
