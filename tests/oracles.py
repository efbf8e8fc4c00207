"""Numpy references for the closed forms in selfevolve.markov, and the
stdlib reference for the event log reader.

The package evaluates its chain laws in pure Python. These are the matrix
forms they are checked against (P^n by matrix_power, (I - Q)^-1 R by a linear
solve) and the vectorized Monte Carlo oracles the tests compare with.

The package reads its log with orjson; read_events is the same reader on the
stdlib decoder alone, whose grammar the writer's encoder follows.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from selfevolve.markov import (
    CORRECT,
    AbsorbingChainParams,
    AbsorptionResult,
    SingularChain,
    StateDistribution,
    TransitionParams,
    absorption_probabilities,
)
from selfevolve.store import CorruptLog, _read_events


def transition_matrix(params: TransitionParams) -> np.ndarray:
    """2x2 row-stochastic matrix, rows/columns ordered (Correct, Incorrect)."""
    return np.array(
        [
            [1.0 - params.p_ci, params.p_ci],
            [params.p_ic, 1.0 - params.p_ic],
        ]
    )


def as_array(dist: StateDistribution) -> np.ndarray:
    return np.array([dist.pi_c, dist.pi_i])


def evolve_by_matrix_power(
    params: TransitionParams, initial: StateDistribution, n: int
) -> StateDistribution:
    """Push a distribution forward n steps: initial . P^n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    vec = as_array(initial) @ np.linalg.matrix_power(transition_matrix(params), n)
    total = vec.sum()
    return StateDistribution(float(vec[0] / total), float(vec[1] / total))


def chain_correct_frequency(
    params: TransitionParams,
    initial_state: str,
    n_steps: int,
    n_chains: int,
    seed: int,
) -> float:
    """Fraction of n_chains independent paths that sit in Correct after n_steps.

    Vectorized Monte Carlo oracle for evolve_distribution / the stationary law.
    """
    rng = np.random.default_rng(seed)
    correct = np.full(n_chains, initial_state == CORRECT)
    for _ in range(n_steps):
        u = rng.random(n_chains)
        flip = u < np.where(correct, params.p_ci, params.p_ic)
        correct ^= flip
    return float(correct.mean())


def absorbing_transition_matrix(acp: AbsorbingChainParams) -> np.ndarray:
    """4x4 row-stochastic matrix over S1..S4 for the chain without a reject limit.

    S1/S2: Correct/Incorrect and ongoing; S3/S4: Correct/Incorrect terminated.
    """
    if acp.reject_limit is not None:
        raise ValueError("the 4-state matrix models only the chain without a reject limit")
    b = acp.beta**acp.accept_limit
    a = acp.alpha**acp.accept_limit
    return np.array(
        [
            [(1 - b) * acp.y_c0, (1 - b) * (1 - acp.y_c0), b, 0.0],
            [(1 - a) * acp.y_i0, (1 - a) * (1 - acp.y_i0), 0.0, a],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def absorption_by_solve(acp: AbsorbingChainParams, start: str) -> AbsorptionResult:
    """Exit split (I - Q)^-1 R from transient start state "S1" or "S2"."""
    if start not in ("S1", "S2"):
        raise ValueError("start must be 'S1' or 'S2'")
    p = absorbing_transition_matrix(acp)
    q, r = p[:2, :2], p[:2, 2:]
    absorb = np.linalg.solve(np.eye(2) - q, r)
    row = absorb[0 if start == "S1" else 1]
    return AbsorptionResult(float(row[0]), float(row[1]))


def check_overconfidence_bound(acp: AbsorbingChainParams) -> tuple[bool, float]:
    """Evaluate alpha^accept_limit >= y_i0; when it holds, the correct-exit
    probability from an ongoing Incorrect solution cannot exceed 0.5."""
    holds = acp.alpha**acp.accept_limit >= acp.y_i0
    p = absorption_probabilities(acp, "S2").p_correct_exit
    if holds and p > 0.5 + 1e-9:
        raise AssertionError(
            f"bound violated: alpha^a >= y_i0 but p_correct_exit = {p}"
        )
    return holds, p


def verdep_exit_frequencies(
    acp: AbsorbingChainParams,
    start: str,
    n_samples: int,
    seed: int,
    max_rounds: int = 1_000_000,
) -> tuple[float, float]:
    """Monte Carlo exit split for the chain without a reject limit.

    Simulates the 4-state process forward, one accept-or-refine round per
    iteration (a run of consecutive passes never changes the solution, so the
    exit distribution is identical to the step-level process). Vectorized so
    that 10^6 samples are practical. Returns (correct-exit, incorrect-exit)
    frequencies; raises SingularChain if any path fails to absorb in
    max_rounds rounds.
    """
    if acp.reject_limit is not None:
        raise ValueError("exit frequencies need the chain without a reject limit")
    if start not in ("S1", "S2"):
        raise ValueError("start must be 'S1' or 'S2'")
    rng = np.random.default_rng(seed)
    b = acp.beta**acp.accept_limit
    a = acp.alpha**acp.accept_limit
    correct = np.full(n_samples, start == "S1")
    exited_correct = 0
    exited_incorrect = 0
    rounds = 0
    while correct.shape[0] > 0:
        if rounds >= max_rounds:
            raise SingularChain(
                f"{correct.shape[0]} of {n_samples} paths unabsorbed after {max_rounds} rounds"
            )
        rounds += 1
        accept = rng.random(correct.shape[0]) < np.where(correct, b, a)
        exited_correct += int(np.count_nonzero(accept & correct))
        exited_incorrect += int(np.count_nonzero(accept & ~correct))
        correct = correct[~accept]
        u = rng.random(correct.shape[0])
        correct = u < np.where(correct, acp.y_c0, acp.y_i0)
    return exited_correct / n_samples, exited_incorrect / n_samples


_decode = json.JSONDecoder().decode


def read_events(fh) -> tuple[list[dict], int]:
    """store._read_events on the stdlib decoder alone: (the lines' objects,
    each with its trial made a tuple, byte length of the valid prefix)."""
    events: list[dict] = []
    valid = 0
    for n, line in enumerate(fh, 1):
        if not line.endswith(b"\n"):
            break  # the last write was cut
        try:
            ev = _decode(line.decode("utf-8"))
            if type(ev["seq"]) is not int:  # a bool or a float too
                raise TypeError(f"seq {ev['seq']!r} is not an integer")
            if ev["trial"] is not None:
                ev["trial"] = tuple(ev["trial"])
            ev["kind"], ev["payload"], ev["ts"]  # a line that lacks one is unparseable
        except (ValueError, KeyError, TypeError) as e:
            if not fh.read(1):
                break  # an unparseable last line is an interrupted write
            raise CorruptLog(f"unparseable event at line {n}: {e}", len(events)) from e
        expected = events[-1]["seq"] + 1 if events else 1
        if ev["seq"] != expected:
            raise CorruptLog(
                f"sequence gap: expected {expected}, found {ev['seq']}", len(events)
            )
        events.append(ev)
        valid += len(line)
    return events, valid


def read_outcome(reader, path: Path) -> str:
    """repr of what reader returns for the file at path, or of the exception
    it raises with its message and valid prefix. A repr tells NaN, -0.0, 1 and
    1.0 and key order apart, where == on the events would not."""
    try:
        with open(path, "rb") as fh:
            return repr(reader(fh))
    except Exception as e:
        return repr((type(e), str(e), getattr(e, "valid_prefix_events", None)))


def assert_reads_like_stdlib(path: Path) -> None:
    got, want = read_outcome(_read_events, path), read_outcome(read_events, path)
    assert got == want, f"{path}: {path.read_bytes()!r}\norjson: {got}\nstdlib: {want}"
