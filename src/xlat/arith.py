"""Integer arithmetic by trial division: factoring, primality, prime powers,
Euler's phi and a deterministic prime stream.  Inputs are desk-scale (degrees,
cyclotomic orders, the coefficients of one polynomial)."""


def factor_int(n: int) -> dict:
    """Prime exponent dict of |n|, primes ascending; empty for 0 and +-1."""
    out = {}
    n = abs(n)
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def is_prime_power(n: int) -> bool:
    return n >= 2 and len(factor_int(n)) == 1


def euler_phi(d: int) -> int:
    out = d
    for p in factor_int(d):
        out -= out // p
    return out


def primes_from(start: int):
    """Deterministic prime stream, first prime >= start."""
    if start <= 2:
        yield 2
        start = 3
    n = start if start % 2 == 1 else start + 1
    while True:
        if is_prime(n):
            yield n
        n += 2
