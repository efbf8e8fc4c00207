"""Boxed-answer extraction and normalization.

Answers are compared as normalized strings. Competition answers here are
integers, so integer canonicalization (sign, leading zeros) is enough; any
other content is kept as trimmed literal text. Normalization is idempotent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

# Presentation-only LaTeX wrappers whose single brace argument is the payload.
_WRAPPER_RE = re.compile(
    r"^\\(?:text|textbf|textit|textrm|mathrm|mathbf|mathit)\s*\{(.*)\}$", re.DOTALL
)
_COLOR_RE = re.compile(r"^\\(?:textcolor|color)\s*\{[^{}]*\}\s*\{(.*)\}$", re.DOTALL)
_INT_RE = re.compile(r"^[+-]?\d+$")
_BOXED_OPEN_RE = re.compile(r"\\boxed\s*\{")


@dataclass(frozen=True)
class AnswerKey:
    """A normalized final answer; equality is plain string equality."""

    canonical: str


def _strip_wrappers(s: str) -> str:
    while True:
        s = s.strip()
        if s.startswith("$") and s.endswith("$") and len(s) >= 2:
            s = s[1:-1]
            continue
        m = _COLOR_RE.match(s) or _WRAPPER_RE.match(s)
        if m and _balanced(m.group(1)):
            s = m.group(1)
            continue
        return s


def _balanced(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def normalize_answer(raw: str) -> AnswerKey:
    """Strip markup and whitespace; canonicalize pure integers."""
    s = _strip_wrappers(raw)
    s = re.sub(r"\s+", " ", s).strip()
    if _INT_RE.match(s):
        s = str(int(s))
    return AnswerKey(s)


@lru_cache(maxsize=256)
def extract_answer(summary_text: str) -> AnswerKey | None:
    """Contents of the last balanced \\boxed{...}, normalized; None if absent.

    Memoized on the text, which the mock re-parses after the engine; the
    results are frozen, so callers can share them."""
    content = extract_boxed(summary_text)
    if content is None:
        return None
    return normalize_answer(content)


def extract_boxed(text: str) -> str | None:
    """Raw contents of the last \\boxed{...} occurrence with balanced braces."""
    if not text:
        return None
    pos = len(text)
    while (pos := text.rfind("\\boxed", 0, pos)) != -1:
        if (m := _BOXED_OPEN_RE.match(text, pos)) is None:
            continue
        depth = 1
        start = m.end()
        for i in range(start, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    return text[start:i]
    return None
