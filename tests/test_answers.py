import random
import re
import string

import pytest

from fixtures import CASE_BLOCKS
from selfevolve.answers import AnswerKey, extract_answer, extract_boxed, normalize_answer


# Hand-built canonicalization table, written before the implementation.
CANONICALIZATION_TABLE = [
    (" 60 ", "60"),
    ("60", "60"),
    ("007", "7"),
    ("+062", "62"),
    ("-0", "0"),
    ("-017", "-17"),
    ("\\textcolor{green}{60}", "60"),
    ("\\textcolor{red}{62}", "62"),
    ("\\text{ 42 }", "42"),
    ("\\mathrm{101}", "101"),
    ("$123$", "123"),
    ("3/4", "3/4"),
    ("x +  y", "x + y"),
    ("\\sqrt{3}", "\\sqrt{3}"),
]


@pytest.mark.parametrize("raw,expected", CANONICALIZATION_TABLE)
def test_normalize_table(raw, expected):
    assert normalize_answer(raw).canonical == expected


def test_normalize_idempotent():
    rng = random.Random(4)
    corpus = [raw for raw, _ in CANONICALIZATION_TABLE]
    corpus += ["".join(rng.choices(string.printable, k=20)) for _ in range(200)]
    for raw in corpus:
        once = normalize_answer(raw)
        assert normalize_answer(once.canonical) == once


def test_extract_last_boxed_wins():
    text = "First guess \\boxed{10}. After rechecking: \\boxed{20}"
    assert extract_answer(text) == AnswerKey("20")


def test_extract_basic():
    assert extract_answer("Thus, m+n+p = 62. \\boxed{62}") == AnswerKey("62")


def test_extract_leading_zeros():
    assert extract_answer("\\boxed{007}") == AnswerKey("7")


def test_extract_nested_braces():
    assert extract_answer("\\boxed{\\frac{1}{2}}") == AnswerKey("\\frac{1}{2}")


def test_extract_absent():
    assert extract_answer("no final answer here") is None
    assert extract_answer("") is None


def test_extract_unbalanced():
    assert extract_answer("\\boxed{62") is None


def test_extract_skips_unbalanced_last():
    # the last occurrence is unbalanced; the earlier balanced one wins
    assert extract_boxed("\\boxed{1} and \\boxed{oops") == "1"


def test_case_fixtures_answer_sequence():
    # both transcripts yield the 62 / 0 / 60 sequence, color markup stripped
    for solution, verify_text, refine_text in CASE_BLOCKS:
        assert extract_answer(solution) == AnswerKey("62")
        assert extract_answer(verify_text) == AnswerKey("0")
        assert extract_answer(refine_text) == AnswerKey("60")


def test_extraction_deterministic():
    for solution, _, _ in CASE_BLOCKS:
        assert extract_answer(solution) == extract_answer(solution)


BOXED_EDGES = [
    ("\\boxed {5}", "5"),
    ("\\boxed\n{5}", "5"),
    ("\\boxed \t\n {5}", "5"),
    ("\\boxed{a{b{c}}d}", "a{b{c}}d"),
    ("\\boxed{}", ""),
    ("\\boxed{1} then \\boxed{2", "1"),
    ("\\boxed{1} \\boxed{2} \\boxed{{3}", "2"),
    ("\\boxed{8} and a bare \\boxed", "8"),
    ("\\\\boxed{7}", "7"),
    ("\\boxed\\boxed{9}", "9"),
    ("\\boxe{7}", None),
    ("\\boxed 7", None),
    ("", None),
]


@pytest.mark.parametrize("text,expected", BOXED_EDGES)
def test_extract_boxed_edges(text, expected):
    assert extract_boxed(text) == expected


def _reference_extract_boxed(text):
    """Forward regex scan; the shipped function scans backwards for speed."""
    if not text:
        return None
    for m in reversed(list(re.finditer(r"\\boxed\s*\{", text))):
        depth = 1
        for i in range(m.end(), len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    return text[m.end():i]
    return None


def test_extract_boxed_matches_forward_scan():
    rng = random.Random(11)
    atoms = ["\\boxed", "\\boxed{", "\\boxed {", "\\boxed\n{", "\\boxe{", "\\",
             "{", "}", "x", "1", " "]
    for _ in range(5000):
        text = "".join(rng.choice(atoms) for _ in range(rng.randrange(12)))
        assert extract_boxed(text) == _reference_extract_boxed(text), text


def test_extract_answer_keyed_on_content():
    # equal texts built separately parse alike, and a different text is not
    # answered from an earlier parse
    a = "".join(["Final: \\boxed{", "0", "42}"])
    b = "Final: \\boxed{" + str(42).zfill(3) + "}"
    assert a == b and a is not b
    assert extract_answer(a) == extract_answer(b) == AnswerKey("42")
    assert extract_answer(a.replace("42", "43")) == AnswerKey("43")


@pytest.mark.parametrize("raw,expected", [
    ("\\text{\\frac{1}{2}}", "\\frac{1}{2}"),  # braces inside the wrapper
    ("\\text{a}+\\text{b}", "\\text{a}+\\text{b}"),  # two wrappers, not one
    ("\\textbf{{x}", "\\textbf{{x}"),  # a brace left open
])
def test_wrapper_strips_only_a_balanced_argument(raw, expected):
    assert normalize_answer(raw).canonical == expected
