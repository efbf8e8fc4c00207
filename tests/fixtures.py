"""Transcript fixtures for the answer pipeline: two solve/verify/refine case
blocks in the style of real model output, including colored boxed answers.
Also edits that turn one IterationCommitted line of an event log into a line
that does not decode, parse or build its record."""

import json

PENTAGON_PROBLEM = (
    "Let $ABCDE$ be a convex pentagon with $AB=14, BC=7, CD=24, DE=13, EA=26,$ "
    "and $\\angle B=\\angle E=60^\\circ$. For each point $X$ in the plane, define "
    "$f(X)=AX+BX+CX+DX+EX$. The least possible value of $f(X)$ can be expressed "
    "as $m+n\\sqrt{p}$, where $m$ and $n$ are positive integers and $p$ is not "
    "divisible by the square of any prime. Find $m+n+p$"
)

CASE_1_SOLUTION = """<think>long derivation trace omitted</think>

The convex pentagon \\(ABCDE\\) has side lengths \\(AB = 14\\), \\(BC = 7\\), \\(CD = 24\\), \\(DE = 13\\), \\(EA = 26\\), and angles \\(\\angle B = \\angle E = 60^\\circ\\). The function \\(f(X) = AX + BX + CX + DX + EX\\) is minimized at a point \\(X\\) with coordinates \\(\\left(\\frac{109}{7}, \\frac{44\\sqrt{3}}{7}\\right)\\).

The sum is \\(f(X) = 5\\sqrt{3} + 19 + 8\\sqrt{3} + 8\\sqrt{3} + 19 = 38 + 21\\sqrt{3}\\).

This sum is expressed as \\(m + n\\sqrt{p}\\) where \\(m = 38\\), \\(n = 21\\), and \\(p = 3\\). Thus, \\(m + n + p = 38 + 21 + 3 = 62\\).

\\boxed{\\textcolor{red}{62}}"""

CASE_1_VERIFY = """<think>checking the claimed minimum</think>

The solution claims that the minimum value of \\(f(X)\\) occurs at the point \\(X = \\left(\\frac{109}{7}, \\frac{44\\sqrt{3}}{7}\\right)\\), with the sum \\(f(X) = 38 + 21\\sqrt{3}\\). However, verification shows that the sum of the unit vectors from the points to \\(X\\) is not zero, which is a necessary condition for the minimum. Calculating \\(f(X)\\) at another point gives a smaller value, confirming that \\(X\\) is not the minimum. Therefore, the solution is incorrect.

\\boxed{0}"""

CASE_1_REFINE = """<think>reconsidering with the Fermat point</think>

The point that minimizes the sum of distances \\(f(X)\\) is found to be the Fermat-Torricelli point of the triangle formed by vertices \\(A\\), \\(C\\), and \\(D\\). This sum is \\(19\\sqrt{3}\\), and the minimum value of \\(f(X)\\) is \\(38 + 19\\sqrt{3}\\).

The expression \\(38 + 19\\sqrt{3}\\) is in the form \\(m + n\\sqrt{p}\\), where \\(m = 38\\), \\(n = 19\\), and \\(p = 3\\). Thus, \\(m + n + p = 38 + 19 + 3 = 60\\).

\\boxed{\\textcolor{green}{60}}"""

CASE_2_SOLUTION = """<think>coordinate bash</think>

The convex pentagon is correctly constructed with vertices at \\(A(7, 7\\sqrt{3})\\), \\(B(0, 0)\\), \\(C(7, 0)\\), \\(D(205/7, 36\\sqrt{3}/7)\\), and \\(E(218/7, 88\\sqrt{3}/7)\\).

The function \\(f(X)\\) is minimized on the line segment \\(BE\\). The minimum of \\(AX + CX + DX\\) on \\(BE\\) occurs at the midpoint \\(M(109/7, 44\\sqrt{3}/7)\\), where \\(AX + CX + DX = 21\\sqrt{3}\\). Thus, \\(f(M) = 38 + 21\\sqrt{3}\\), giving \\(m + n + p = 38 + 21 + 3 = 62\\).

\\boxed{\\textcolor{red}{62}}"""

CASE_2_VERIFY = """<think>numerical check of the claimed point</think>

The solution claims that the minimum value of \\(f(X)\\) is \\(38 + 21\\sqrt{3}\\), achieved at the midpoint M of BE. However, numerical calculations show that the minimum occurs on the line segment BE but at a different point, with a value of approximately 70.913. At M, f(X) = 74.372, which is larger than the minimum found. Since the solution's minimum value and the point are incorrect, the answer is 0.

\\boxed{0}"""

CASE_2_REFINE = """<think>re-deriving the minimum on BE</think>

The function \\(f(X)\\) is minimized on the line segment \\(BE\\), where \\(BX + EX = 38\\) for all \\(X\\) on \\(BE\\). Minimizing \\(f(X)\\) is equivalent to minimizing \\(g(X) = AX + CX + DX + 38\\) for \\(X\\) on \\(BE\\).

The minimum value of \\(f(X)\\) is \\(38 + 19\\sqrt{3}\\), achieved at a point on \\(BE\\). This is expressed as \\(m + n\\sqrt{p}\\) with \\(m = 38\\), \\(n = 19\\), and \\(p = 3\\). Thus, \\(m + n + p = 38 + 19 + 3 = 60\\).

\\boxed{\\textcolor{green}{60}}"""

CASE_BLOCKS = [
    (CASE_1_SOLUTION, CASE_1_VERIFY, CASE_1_REFINE),
    (CASE_2_SOLUTION, CASE_2_VERIFY, CASE_2_REFINE),
]


def _edit_event(change):
    def edit(line: bytes) -> bytes:
        event = json.loads(line)
        change(event)
        return json.dumps(event, separators=(",", ":")).encode()
    return edit


# name -> edit of one log line, given and returned without its newline
CORRUPT_LINE_EDITS = {
    "garbage": lambda line: b"garbage",
    "undecodable": lambda line: line.replace(b'"kind":"', b'"kind":"\xff', 1),
    "payload_list": _edit_event(lambda e: e.update(payload=[])),
    "record_unknown_key": _edit_event(lambda e: e["payload"]["record"].update(bogus=1)),
    "record_missing_key": _edit_event(lambda e: e["payload"]["record"].pop("solution_text")),
    "trial_string": _edit_event(lambda e: e.update(trial="p0")),
    "seq_string": _edit_event(lambda e: e.update(seq=str(e["seq"]))),
    "seq_float": _edit_event(lambda e: e.update(seq=float(e["seq"]))),
    "seq_bool": _edit_event(lambda e: e.update(seq=True)),
    "seq_null": _edit_event(lambda e: e.update(seq=None)),
}
