"""Tests of the benchmark's output validators: real replies pass, and
corrupted replies are rejected.

    PYTHONPATH=src python -m pytest -q bench/test_validate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import validate  # noqa: E402
from validate import Invalid  # noqa: E402

# Classes over q = 49 with chi = +1 (the paper's worked example).
CLASSES_49_PLUS = [
    ((1,), {1: 50}),
    ((5, 29), {1: 6, 2: 10, 4: 6}),
    ((7, 31), {1: 8, 2: 21}),
    ((11, 35), {1: 4, 2: 11, 4: 6}),
    ((13, 37), {1: 14, 2: 6, 4: 6}),
    ((17,), {1: 18, 2: 16}),
    ((19, 43), {1: 8, 2: 9, 4: 6}),
    ((23, 47), {1: 4, 2: 23}),
    ((25,), {1: 26, 2: 12}),
    ((41,), {1: 10, 2: 20}),
]


def _cli(*argv: str) -> str:
    from redei.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def test_trial_factor_and_isolated_count():
    assert validate.trial_factor(48) == {2: 4, 3: 1}
    assert validate.trial_factor(97) == {97: 1}
    assert validate.expected_isolated_count(49, 1) == 4  # 48 = 2**4 * 3
    assert validate.expected_isolated_count(49, -1) == 2  # 50 = 2 * 5**2


def test_structure_accepts_true_structures():
    validate.check_structure({1: 2, 4: 2, 20: 2}, 3, 49, -1)
    for members, counts in CLASSES_49_PLUS:
        for m in members:
            validate.check_structure(counts, m, 49, 1)


@pytest.mark.parametrize(
    "corrupted",
    [
        {1: 2, 2: 2, 4: 1, 20: 2},  # a 4-cycle split into two 2-cycles
        {1: 2, 4: 7, 20: 1},  # a 20-cycle split into five 4-cycles
        {1: 2, 4: 2, 10: 2, 20: 1},  # a 20-cycle split into two 10-cycles
        {1: 4, 4: 2, 20: 2},  # extra fixed points, mass broken
    ],
)
def test_structure_rejects_a_moved_cycle(corrupted):
    with pytest.raises(Invalid):
        validate.check_structure(corrupted, 3, 49, -1)


def test_structure_rejects_lengths_merged_with_mass_kept():
    # The 2-cycles of {1: 6, 2: 10, 4: 6} folded into 4-cycles: the
    # identity at r = 4 still holds, the one at r = 2 does not.
    with pytest.raises(Invalid):
        validate.check_structure({1: 6, 4: 11}, 5, 49, 1)


def test_structure_reply_from_the_cli():
    text = _cli("structure", "--q", "49", "--chi", "-1", "--m", "3", "--format", "json")
    assert validate.check_structure_reply(text, 3, 49, -1, verify=False) == 1
    text = _cli("structure", "--q", "49", "--chi", "1", "--m", "5", "--verify", "--format", "json")
    validate.check_structure_reply(text, 5, 49, 1, verify=True)
    obj = json.loads(text)
    obj["oracle"] = "MISMATCH"
    with pytest.raises(Invalid):
        validate.check_structure_reply(json.dumps(obj), 5, 49, 1, verify=True)


def test_family_reply():
    text = _cli("family", "p-qmp1", "--p", "3", "--twok", "4", "--format", "json")
    validate.check_family_reply(text, "p-qmp1", 3, 81, -1)
    obj = json.loads(text)
    obj["pair"] = ["3", "77"]
    with pytest.raises(Invalid):
        validate.check_family_reply(json.dumps(obj), "p-qmp1", 3, 81, -1)
    text = _cli("family", "quarter", "--q", "49", "--chi", "1", "--format", "json")
    validate.check_family_reply(text, "quarter", 7, 49, 1)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_classes_reply_from_the_cli(fmt):
    text = _cli("classes", "--q", "49", "--chi", "1", "--format", fmt)
    rows = validate.parse_classes(text, fmt)
    assert rows == CLASSES_49_PLUS
    assert validate.check_classes(rows, 49, 1) == 16


def test_classes_reject_a_removed_member():
    rows = list(CLASSES_49_PLUS)
    rows[1] = ((5,), rows[1][1])
    with pytest.raises(Invalid):
        validate.check_classes(rows, 49, 1)


def test_classes_reject_a_member_moved_to_another_class():
    rows = list(CLASSES_49_PLUS)
    rows[1] = ((5,), rows[1][1])
    rows[2] = ((7, 29, 31), rows[2][1])
    with pytest.raises(Invalid):
        validate.check_classes(rows, 49, 1)


def test_classes_reject_a_split_class():
    rows = list(CLASSES_49_PLUS)
    rows[1:2] = [((5,), rows[1][1]), ((29,), rows[1][1])]
    with pytest.raises(Invalid):
        validate.check_classes(rows, 49, 1)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_isolated_reply(fmt):
    text = _cli("isolated", "--q", "49", "--chi", "1", "--format", fmt)
    assert validate.check_isolated(text, fmt, 49, 1, CLASSES_49_PLUS) == 4
    if fmt == "csv":
        with pytest.raises(Invalid):
            validate.check_isolated(text.replace("41\n", ""), fmt, 49, 1)
    else:
        obj = json.loads(text)
        obj["isolated"] = obj["isolated"][:-1] + [43]
        with pytest.raises(Invalid):
            validate.check_isolated(json.dumps(obj), fmt, 49, 1)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_pairs_reply(fmt):
    text = _cli("pairs", "--q", "49", "--chi", "1", "--format", fmt)
    assert validate.check_pairs(text, fmt, 49, 1, CLASSES_49_PLUS) == 6
    if fmt == "csv":
        with pytest.raises(Invalid):
            validate.check_pairs(text.replace("7,31,24\n", ""), fmt, 49, 1, CLASSES_49_PLUS)
        with pytest.raises(Invalid):
            validate.check_pairs(text.replace("7,31,24", "7,35,28"), fmt, 49, 1, CLASSES_49_PLUS)


VERIFY_TEXT = (
    "formula_vs_bruteforce: checked=10 ok\n"
    "families: checked=7 ok\n"
    "all properties hold\n"
)


def test_oracle_counts():
    expected = {"formula_vs_bruteforce": 10, "families": 7}
    assert validate.check_oracle(VERIFY_TEXT, expected) == 17
    for corrupted in (
        VERIFY_TEXT.replace("checked=10", "checked=9"),  # a check dropped
        VERIFY_TEXT.replace("checked=10", "checked=11"),  # a check counted twice
        VERIFY_TEXT.replace("families:", "extra: checked=5 ok\nfamilies:"),  # a dummy row
        VERIFY_TEXT.replace("families:", "families: checked=7 ok\nfamilies:"),  # a row twice
    ):
        with pytest.raises(Invalid):
            validate.check_oracle(corrupted, expected)
    with pytest.raises(Invalid):
        validate.check_oracle(VERIFY_TEXT.replace("families: checked=7 ok\n", ""), expected)
    with pytest.raises(Invalid):
        validate.check_oracle(VERIFY_TEXT.replace("checked=7 ok", "checked=7 FAILED (1)"), expected)
    with pytest.raises(Invalid):
        validate.check_oracle(VERIFY_TEXT.replace("all properties hold\n", ""), expected)


def test_oracle_reference_counts_cover_the_band():
    from workloads import ORACLE_QMAX

    counts = json.loads((Path(__file__).parent / "oracle_counts.json").read_text())
    assert sorted(int(n) for n in counts) == list(ORACLE_QMAX)
