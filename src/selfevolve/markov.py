"""Two-state correctness chain and the verification-dependent absorbing chain.

Closed forms (stationary distribution, mixing rate, distribution after n
steps, absorption probabilities) are computed directly from their formulas;
a step-level sampler realizes the verification-dependent process. It is
deterministic given a seed and safe to evaluate in parallel: its draws are
64-bit words of blake2b blocks keyed by the signed decimal seed (counter-based,
Salmon et al., SC 2011), so seeds s and -s differ. The stream replaced a
Mersenne Twister: `simulate verdep` output per seed changed, within noise.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import blake2b
from math import inf

CORRECT = "C"
INCORRECT = "I"
_WORDS = struct.Struct("<8Q").unpack  # one 64-byte digest -> eight 64-bit draws


class DegenerateChain(ValueError):
    """p_ic = p_ci = 0: every distribution is stationary, no unique answer."""


class SingularChain(ValueError):
    """det(I - Q) = 0: no absorption possible (e.g. alpha = beta = 0)."""


def _check_prob(name: str, p: float) -> None:
    if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be a number in [0, 1], not {p!r}")


def _check_int(name: str, value, minimum: int | None = None) -> int:
    """value, if it is an int (not a bool, a float or a numeric string) and at
    least minimum when one is given; the one integer rule of every section."""
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, not {value!r}")
    return value


@dataclass(frozen=True)
class TransitionParams:
    """The pair (p_ic, p_ci): improvement and degradation probabilities."""

    p_ic: float
    p_ci: float

    def __post_init__(self):
        _check_prob("p_ic", self.p_ic)
        _check_prob("p_ci", self.p_ci)


@dataclass(frozen=True)
class StateDistribution:
    """Probability mass over (Correct, Incorrect)."""

    pi_c: float
    pi_i: float

    def __post_init__(self):
        _check_prob("pi_c", self.pi_c)
        _check_prob("pi_i", self.pi_i)
        if abs(self.pi_c + self.pi_i - 1.0) > 1e-12:
            raise ValueError(f"masses must sum to 1, got {self.pi_c + self.pi_i}")


@dataclass(frozen=True)
class AbsorbingChainParams:
    """Parameters of the verification-dependent chain.

    alpha / beta are pass probabilities given an Incorrect / Correct solution.
    y_c0 / y_i0 are probabilities that refinement after a failed verification
    yields a Correct solution from (Correct, fail) / (Incorrect, fail); a
    pass keeps the solution.
    """

    alpha: float
    beta: float
    y_c0: float
    y_i0: float
    accept_limit: int = 5
    reject_limit: int | None = None

    def __post_init__(self):
        _check_prob("alpha", self.alpha)
        _check_prob("beta", self.beta)
        _check_prob("y_c0", self.y_c0)
        _check_prob("y_i0", self.y_i0)
        _check_int("accept_limit", self.accept_limit, 1)
        if self.reject_limit is not None:
            _check_int("reject_limit", self.reject_limit, 1)


@dataclass(frozen=True)
class AbsorptionResult:
    """Absorption split between the two terminated states, for a given start."""

    p_correct_exit: float
    p_incorrect_exit: float


# ---------------------------------------------------------------------------
# Two-state chain
# ---------------------------------------------------------------------------


def stationary_distribution(params: TransitionParams) -> StateDistribution:
    """Long-run probability of (Correct, Incorrect): pi_c = p_ic / (p_ic + p_ci)."""
    s = params.p_ic + params.p_ci
    if s == 0.0:
        raise DegenerateChain("p_ic = p_ci = 0 has no unique stationary distribution")
    return StateDistribution(params.p_ic / s, params.p_ci / s)


def convergence_rate(params: TransitionParams) -> float:
    """|lambda_2| = |1 - p_ci - p_ic|, the geometric mixing rate."""
    return abs(1.0 - params.p_ci - params.p_ic)


def evolve_distribution(
    params: TransitionParams, initial: StateDistribution, n: int
) -> StateDistribution:
    """Push a distribution forward n steps: initial . P^n, in closed form
    pi_c + (c_0 - pi_c) * lambda^n with lambda = 1 - p_ic - p_ci. With
    p_ic + p_ci = 0, P is the identity and the start is returned."""
    if n < 0:
        raise ValueError("n must be >= 0")
    s = params.p_ic + params.p_ci
    if n == 0 or s == 0.0:
        return initial
    pi_c = params.p_ic / s
    c = pi_c + (initial.pi_c - pi_c) * (1.0 - s) ** n
    return StateDistribution(c, 1.0 - c)


# ---------------------------------------------------------------------------
# Verification-dependent absorbing chain
# ---------------------------------------------------------------------------


def absorption_probabilities(acp: AbsorbingChainParams, start: str) -> AbsorptionResult:
    """Exit split (I - Q)^-1 R from transient start state "S1" or "S2", for
    the 4-state chain without a reject limit: acp.reject_limit is not read.

    S1/S2 are Correct/Incorrect and ongoing. A round from S1 accepts with
    b = beta^accept_limit, from S2 with a = alpha^accept_limit; otherwise it
    refines with y_c0 / y_i0. The entries of (I - Q)^-1 R are written out.
    """
    if start not in ("S1", "S2"):
        raise ValueError("start must be 'S1' or 'S2'")
    b = acp.beta**acp.accept_limit
    a = acp.alpha**acp.accept_limit
    det = a - (1 - b) * a * acp.y_c0 + (1 - a) * b * acp.y_i0
    if det <= 1e-15:
        raise SingularChain(f"det(I - Q) = {det}; no absorption possible")
    if start == "S1":
        p_correct = (1 - (1 - a) * (1 - acp.y_i0)) * b / det
        p_incorrect = (1 - b) * a * (1 - acp.y_c0) / det
    else:
        p_correct = (1 - a) * b * acp.y_i0 / det
        p_incorrect = (1 - (1 - b) * acp.y_c0) * a / det
    return AbsorptionResult(p_correct, p_incorrect)


def simulate_verdep_chain(
    acp: AbsorbingChainParams,
    seed: int,
    max_iterations: int,
    initial_state: str = INCORRECT,
) -> tuple[str, bool, list[int]]:
    """Full-fidelity sample of the verification-dependent process.

    Each step verifies (pass w.p. beta if Correct else alpha), updates the
    streak counters (a pass resets the fail counter and vice versa), and on a
    fail refines with y_c0 / y_i0. A pass keeps the solution unchanged,
    matching the analyzed 4-state matrix. A draw with probability p passes iff
    its word is below int(p * 2**64): exact to 2**-64, p = 0 and 1 included.

    Returns (exit kind "Accepted" | "Rejected" | "Budget", final correctness,
    the verdicts in order, 1 for a pass).
    """
    key = blake2b(str(_check_int("seed", seed)).encode("ascii"), digest_size=64)
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    alpha, beta = int(acp.alpha * 2.0**64), int(acp.beta * 2.0**64)
    y_c0, y_i0 = int(acp.y_c0 * 2.0**64), int(acp.y_i0 * 2.0**64)
    words, w, block = _WORDS(key.digest()), 0, 0
    accept_limit = acp.accept_limit
    reject_limit = acp.reject_limit if acp.reject_limit is not None else inf
    correct = initial_state == CORRECT
    verdicts: list[int] = []
    passes = fails = 0
    for _ in range(max_iterations):
        if w > 6:  # a step needs up to two words: drop the spare, hash the next block
            block += 1
            h = key.copy()
            h.update(block.to_bytes(8, "little"))
            words, w = _WORDS(h.digest()), 0
        if words[w] < (beta if correct else alpha):
            w += 1
            passes += 1
            fails = 0
            verdicts.append(1)
        else:
            fails += 1
            passes = 0
            verdicts.append(0)
            correct = words[w + 1] < (y_c0 if correct else y_i0)
            w += 2
        if passes >= accept_limit or fails >= reject_limit:
            break
    exit_kind = ("Accepted" if passes >= accept_limit else
                 "Rejected" if fails >= reject_limit else "Budget")
    return exit_kind, correct, verdicts
