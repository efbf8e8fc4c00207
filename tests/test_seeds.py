"""Golden values for derive_seed. Every seed a run derives, and so every
committed record, depends on them; they must never change."""

from selfevolve.seeds import derive_seed


def test_derive_seed_golden_values():
    assert derive_seed(7, "p0", 3) == 5556010552357154204
    assert derive_seed() == 8203414616412130826
    assert derive_seed(-5, "x") == 1160526009029087124
    assert derive_seed("\u00e9\u2211\u00fc", 0) == 7232548042945482224
    assert derive_seed(2**70, -1) == 54046405939894314
    assert derive_seed(0, 0, "solve") == 8702474728635349044


def test_derive_seed_golden_nested_path():
    # trial seed, then an iteration's verify seed, then a re-ask attempt
    trial = derive_seed(11, "prob-\u03b1", 4)
    verify = derive_seed(trial, 6, "verify")
    attempt = derive_seed(verify, "attempt", 1)
    assert (trial, verify, attempt) == (
        1558476741607186256, 7972352539594455169, 5752375510328068873)
