"""Stable seed derivation for reproducible parallel runs.

Every stochastic call in a run gets its own seed derived from the run seed
plus a structural path (problem id, trial index, iteration, phase, attempt).
Seeds therefore do not depend on scheduling order or on how much of the run
was replayed after a crash.
"""

import hashlib


def derive_seed(*parts) -> int:
    """Hash an arbitrary tuple of ints/strings into a 63-bit seed."""
    # Each part hashes as its repr followed by a unit separator (0x1f).
    data = ("%r\x1f" * len(parts) % parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big") >> 1
