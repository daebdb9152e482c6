"""Costas code generation and verification against a brute-force oracle."""

import itertools
import math

import numpy as np
import pytest

import wavekit as wk
from wavekit import costas
from wavekit.errors import InvalidInputError
from wavekit.signal import _MAX_SAMPLES, DB_FLOOR

from oracles import costas_autocorr_mag, costas_brute_force


def test_known_welch_sequence():
    """Welch p=5, g=2: powers of 2 mod 5 give (2, 4, 3, 1)."""
    code = wk.generate_welch_costas(5, 2)
    assert code.sequence == (2, 4, 3, 1)
    assert len(code) == 4
    assert list(code) == [2, 4, 3, 1]


def test_welch_length_is_p_minus_1():
    for p, g in ((5, 2), (7, 3), (11, 2), (17, 3)):
        assert len(wk.generate_welch_costas(p, g)) == p - 1


def test_welch_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        wk.generate_welch_costas(9, 2)  # not prime
    with pytest.raises(InvalidInputError):
        wk.generate_welch_costas(7, 2)  # 2 is not primitive mod 7


def test_welch_prime_above_the_cap_is_refused_before_trial_division(monkeypatch):
    """p = 10**18 + 3 would take about 5e8 trial divisions."""
    def trial_division(n):
        raise AssertionError(f"trial division of {n}")
    monkeypatch.setattr(costas, "_prime_factors", trial_division)
    with pytest.raises(InvalidInputError, match=f"^p must be <= {costas._MAX_WELCH_PRIME}$"):
        wk.generate_welch_costas(10**18 + 3, 2)


def test_welch_prime_cap_is_the_largest_synthesizable_chip_count():
    """N = p - 1 chips need fs*T >= 4N^2 samples, within the 2^26 sample cap:
    p <= isqrt(2^26 / 4) + 1 = 4097.  is_prime has no cap."""
    assert costas._MAX_WELCH_PRIME == math.isqrt(_MAX_SAMPLES // 4) + 1 == 4097
    n_max = costas._MAX_WELCH_PRIME - 1
    assert 4 * n_max**2 <= _MAX_SAMPLES < 4 * (n_max + 1) ** 2
    assert wk.is_prime(2**31 - 1)


def test_verify_costas_matches_brute_force_all_short_permutations():
    """Exhaustive agreement with the O(N^4) definition for N <= 6."""
    for n in range(1, 7):
        for perm in itertools.permutations(range(1, n + 1)):
            assert wk.verify_costas(perm) == costas_brute_force(perm), perm


def test_verify_costas_matches_brute_force_on_random_permutations():
    """Welch codes under a random symmetry of the square (reversal, inverse),
    each also with two entries swapped, and random permutations, N = 4 to 22:
    Costas and not, the sort-based check agrees with the oracle."""
    rng = np.random.default_rng(17)
    verdicts = []
    for p in (5, 7, 11, 13, 17, 19, 23):
        roots = wk.primitive_roots(p)
        for _ in range(4):
            seq = list(wk.generate_welch_costas(p, int(rng.choice(roots))).sequence)
            if rng.random() < 0.5:
                seq = seq[::-1]
            if rng.random() < 0.5:
                seq = [seq.index(v) + 1 for v in range(1, len(seq) + 1)]
            i, j = rng.choice(len(seq), 2, replace=False)
            swapped = list(seq)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            for perm in (seq, swapped, [int(v) + 1 for v in rng.permutation(len(seq))]):
                verdicts.append(costas_brute_force(perm))
                assert wk.verify_costas(perm) == verdicts[-1], perm
    assert True in verdicts and False in verdicts


def test_verify_costas_known_negative():
    # Arithmetic progression: every difference-triangle row repeats.
    assert not wk.verify_costas((1, 2, 3, 4))


def test_verify_costas_rejects_non_permutations():
    with pytest.raises(InvalidInputError):
        wk.verify_costas((1, 1, 2))
    with pytest.raises(InvalidInputError):
        wk.verify_costas((0, 1, 2))


def test_costas_code_constructor_enforces_property():
    with pytest.raises(InvalidInputError):
        wk.CostasCode(sequence=(1, 2, 3))
    code = wk.CostasCode(sequence=(2, 4, 3, 1))
    assert code.sequence == (2, 4, 3, 1)


def test_primality_and_primitive_roots():
    assert [n for n in range(20) if wk.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert wk.primitive_roots(7) == [3, 5]
    assert wk.is_primitive_root(3, 17)
    assert not wk.is_primitive_root(2, 17)
    assert not wk.is_primitive_root(17, 17)  # g = 0 mod p
    assert [g for g in range(4) if wk.is_primitive_root(g, 2)] == [1, 3]
    assert wk.primitive_roots(2) == [1]
    with pytest.raises(InvalidInputError):
        wk.is_primitive_root(2, 8)


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9])
def test_primitive_roots_refuse_every_p_that_is_not_prime(p):
    with pytest.raises(InvalidInputError, match=f"^p = {p} is not prime$"):
        wk.primitive_roots(p)


def test_all_welch_codes_through_p_31_are_costas():
    """Every Welch code from every primitive root passes verification.

    (The acceptance suite extends this to p <= 100; this keeps a quick
    version in the module tests.)
    """
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for g in wk.primitive_roots(p):
            assert wk.verify_costas(wk.generate_welch_costas(p, g))


def test_costas16_autocorrelation_matches_chip_overlap_closed_form(costas16):
    """The sampled Costas-16 autocorrelation agrees with the continuous
    chip-pair closed form over the default sidelobe region, and both
    vanish at every nonzero whole-chip shift."""
    signal, sequence = costas16["signal"], costas16["code"].sequence
    resp = wk.autocorrelation(signal)
    in_region = wk.default_region(256.0, 1.0).mask(resp.lags_s)
    oracle = costas_autocorr_mag(sequence, signal.duration_s,
                                 resp.lags_s[in_region])
    assert np.abs(resp.magnitude_linear()[in_region] - oracle).max() <= 1e-3
    # The region peak is the first sidelobe of the 16 superposed tones
    # (a Dirichlet kernel), far above the 1/N lattice plateau.
    assert 20.0 * np.log10(oracle.max()) == pytest.approx(-18.95, abs=0.05)

    n = len(costas16["code"])
    shifts = np.arange(1, n) * signal.duration_s / n
    np.testing.assert_allclose(
        costas_autocorr_mag(sequence, signal.duration_s,
                            np.concatenate([-shifts, shifts])), 0.0, atol=1e-12)
    chip_len = signal.num_samples // n
    at_chips = resp.magnitude_db[signal.num_samples - 1
                                 + chip_len * np.arange(1, n)]
    assert np.all(at_chips <= DB_FLOOR + 1e-9)  # zero, floored in dB
    assert costas_autocorr_mag(sequence, signal.duration_s, [0.0])[0] \
        == pytest.approx(1.0, abs=1e-12)
