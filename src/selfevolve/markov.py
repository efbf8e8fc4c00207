"""Two-state correctness chain and the verification-dependent absorbing chain.

Closed forms (stationary distribution, mixing rate, distribution after n
steps, absorption probabilities) are computed directly from their formulas;
step-level samplers realize the same processes. All simulators are
deterministic given a seed and safe to evaluate in parallel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import inf

CORRECT = "C"
INCORRECT = "I"


class DegenerateChain(ValueError):
    """p_ic = p_ci = 0: every distribution is stationary, no unique answer."""


class RejectingConditionPresent(ValueError):
    """The 4-state absorbing matrix only models the chain without a reject limit."""


class SingularChain(ValueError):
    """det(I - Q) = 0: no absorption possible (e.g. alpha = beta = 0)."""


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p}")


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
    yields a Correct solution from (Correct, fail) / (Incorrect, fail).
    y_c1 / y_i1 are the analogous pass-side refinement probabilities; the
    simplified 4-state matrix never uses them (a pass keeps the solution),
    and the simulator only applies them in an explicit alternate mode.
    """

    alpha: float
    beta: float
    y_c0: float
    y_i0: float
    y_c1: float | None = None
    y_i1: float | None = None
    accept_limit: int = 5
    reject_limit: int | None = None

    def __post_init__(self):
        _check_prob("alpha", self.alpha)
        _check_prob("beta", self.beta)
        _check_prob("y_c0", self.y_c0)
        _check_prob("y_i0", self.y_i0)
        for name in ("y_c1", "y_i1"):
            v = getattr(self, name)
            if v is not None:
                _check_prob(name, v)
        if self.accept_limit < 1:
            raise ValueError("accept_limit must be >= 1")
        if self.reject_limit is not None and self.reject_limit < 1:
            raise ValueError("reject_limit must be >= 1")


@dataclass(frozen=True)
class AbsorptionResult:
    """Absorption split between the two terminated states, for a given start."""

    p_correct_exit: float
    p_incorrect_exit: float
    start: str


@dataclass
class ChainTrajectory:
    """One realized path. Reproducible: same seed + params give the same path."""

    states: list[str]
    seed: int
    verdicts: list[int] = field(default_factory=list)


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


def simulate_chain(
    params: TransitionParams, initial_state: str, n_steps: int, seed: int
) -> ChainTrajectory:
    """Sample one path of length n_steps + 1 starting at initial_state."""
    if initial_state not in (CORRECT, INCORRECT):
        raise ValueError(f"initial_state must be {CORRECT!r} or {INCORRECT!r}")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    rng = random.Random(seed)
    states = [initial_state]
    correct = initial_state == CORRECT
    for _ in range(n_steps):
        flip_p = params.p_ci if correct else params.p_ic
        if rng.random() < flip_p:
            correct = not correct
        states.append(CORRECT if correct else INCORRECT)
    return ChainTrajectory(states=states, seed=seed)


# ---------------------------------------------------------------------------
# Verification-dependent absorbing chain
# ---------------------------------------------------------------------------


def absorption_probabilities(acp: AbsorbingChainParams, start: str) -> AbsorptionResult:
    """Exit split (I - Q)^-1 R from transient start state "S1" or "S2", for
    the 4-state chain without a reject limit.

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
    if acp.reject_limit is not None:
        raise RejectingConditionPresent(
            "the 4-state chain models only the chain without a reject limit")
    if start == "S1":
        p_correct = (1 - (1 - a) * (1 - acp.y_i0)) * b / det
        p_incorrect = (1 - b) * a * (1 - acp.y_c0) / det
    else:
        p_correct = (1 - a) * b * acp.y_i0 / det
        p_incorrect = (1 - (1 - b) * acp.y_c0) * a / det
    return AbsorptionResult(p_correct, p_incorrect, start)


def simulate_verdep_chain(
    acp: AbsorbingChainParams,
    seed: int,
    max_iterations: int,
    initial_state: str = INCORRECT,
    refine_on_pass: bool = False,
) -> tuple[str, bool, ChainTrajectory]:
    """Full-fidelity sample of the verification-dependent process.

    Each step verifies (pass w.p. beta if Correct else alpha), updates the
    streak counters (a pass resets the fail counter and vice versa), and on a
    fail refines with y_c0 / y_i0. By default a pass keeps the solution
    unchanged, matching the analyzed 4-state matrix; refine_on_pass applies
    y_c1 / y_i1 instead (no closed-form ground truth for that mode).

    Returns (exit kind "Accepted" | "Rejected" | "Budget", final correctness,
    trajectory).
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if refine_on_pass and (acp.y_c1 is None or acp.y_i1 is None):
        raise ValueError("refine_on_pass requires y_c1 and y_i1")
    random_ = random.Random(seed).random
    alpha, beta, y_c0, y_i0, y_c1, y_i1 = (
        acp.alpha, acp.beta, acp.y_c0, acp.y_i0, acp.y_c1, acp.y_i1)
    accept_limit = acp.accept_limit
    reject_limit = acp.reject_limit if acp.reject_limit is not None else inf
    correct = initial_state == CORRECT
    states = [CORRECT if correct else INCORRECT]
    verdicts: list[int] = []
    passes = fails = 0
    for _ in range(max_iterations):
        if random_() < (beta if correct else alpha):
            passes += 1
            fails = 0
            verdicts.append(1)
            if refine_on_pass:
                correct = random_() < (y_c1 if correct else y_i1)
        else:
            fails += 1
            passes = 0
            verdicts.append(0)
            correct = random_() < (y_c0 if correct else y_i0)
        states.append(CORRECT if correct else INCORRECT)
        if passes >= accept_limit or fails >= reject_limit:
            break
    exit_kind = ("Accepted" if passes >= accept_limit else
                 "Rejected" if fails >= reject_limit else "Budget")
    return exit_kind, correct, ChainTrajectory(states=states, seed=seed, verdicts=verdicts)


def verdep_exit_counts(
    acp: AbsorbingChainParams,
    n_samples: int,
    seed: int,
    max_iterations: int,
    initial_state: str = INCORRECT,
) -> dict[str, int]:
    """Pooled exit kinds over n_samples step-level runs (reject limit allowed)."""
    counts = {"Accepted": 0, "Rejected": 0, "Budget": 0}
    for i in range(n_samples):
        exit_kind, _, _ = simulate_verdep_chain(
            acp, seed=seed + i, max_iterations=max_iterations, initial_state=initial_state
        )
        counts[exit_kind] += 1
    return counts
