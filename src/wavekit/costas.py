"""Costas firing codes: Welch construction and difference-triangle verification."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_number
from .signal import _MAX_SAMPLES

# Largest Welch modulus p.  Its N = p - 1 chips span B = N^2/T, so synthesis
# (fs >= 4B) needs fs*T >= 4N^2 samples, within the cap of 2^26:
# N <= isqrt(2^26 // 4) = 4096.
_MAX_WELCH_PRIME = math.isqrt(_MAX_SAMPLES // 4) + 1


def is_prime(n: int) -> bool:
    """Trial-division primality test (adequate for the code lengths used here)."""
    n = check_number("n", n, integer=True)
    return n >= 2 and _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def _check_prime(p) -> int:
    """p as an int, which must be prime; else InvalidInputError naming it."""
    p = check_number("p", p, integer=True)
    if not is_prime(p):
        raise InvalidInputError(f"p = {p} is not prime")
    return p


def is_primitive_root(g: int, p: int) -> bool:
    """True iff g generates the multiplicative group mod the prime p.

    g is primitive iff g^((p-1)/q) != 1 (mod p) for every prime factor
    q of p-1.
    """
    g = check_number("g", g, integer=True)
    p = _check_prime(p)
    g = g % p
    if g == 0:
        return False
    return all(pow(g, (p - 1) // q, p) != 1 for q in _prime_factors(p - 1))


def primitive_roots(p: int) -> list[int]:
    """All primitive roots of the prime p, ascending; a p that is not prime is refused."""
    p = _check_prime(p)
    return [g for g in range(1, p) if is_primitive_root(g, p)]


@dataclass(frozen=True)
class CostasCode:
    """A Costas permutation of {1..N}: the FSK chip firing order."""

    sequence: tuple[int, ...]

    def __post_init__(self):
        seq = tuple(check_number("sequence", v, integer=True) for v in self.sequence)
        object.__setattr__(self, "sequence", seq)
        if not verify_costas(seq):
            raise InvalidInputError("sequence violates the Costas property")

    def __len__(self) -> int:
        return len(self.sequence)

    def __iter__(self):
        return iter(self.sequence)


def verify_costas(code) -> bool:
    """Check the Costas property of a permutation.

    Every row d of the difference triangle, code[i+d] - code[i], must
    contain no repeated value.

    Args:
        code: permutation of {1..N} (any sequence of ints).

    Returns:
        True iff the permutation is a Costas array.

    Raises:
        InvalidInputError: if the input is not a permutation of {1..N}.
    """
    seq = [check_number("code", v, integer=True) for v in code]
    n = len(seq)
    if n < 1 or sorted(seq) != list(range(1, n + 1)):  # before numpy, which caps ints
        raise InvalidInputError("Costas code must be a permutation of {1..N}")
    seq = np.array(seq)
    for d in range(1, n):
        diffs = np.sort(seq[d:] - seq[:-d])
        if np.any(diffs[1:] == diffs[:-1]):  # sorted neighbours: np.unique loads numpy.ma
            return False
    return True


def generate_welch_costas(p: int, g: int) -> CostasCode:
    """Welch construction: sequence f_i = g^i mod p for i = 1..p-1.

    Args:
        p: prime modulus.
        g: primitive root of p.

    Returns:
        A CostasCode of length p-1.

    Raises:
        InvalidInputError: if p exceeds _MAX_WELCH_PRIME (refused before any
            trial division), p is not prime or g is not a primitive root.
    """
    p = check_number("p", p, integer=True, maximum=_MAX_WELCH_PRIME)
    if not is_primitive_root(g, p):
        raise InvalidInputError(f"{g} is not a primitive root mod {p}")
    seq = tuple(pow(g, i, p) for i in range(1, p))
    return CostasCode(sequence=seq)
