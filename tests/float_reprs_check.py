"""Compare the trace writer's float kernel, ``market._float_reprs``, with ``repr``.

Checks 10**6 seeded float64 values, in batches, and exits 1 at the first batch with a
mismatch, printing the values that differ.  The values are weighted toward the kernel's
range 1e-4 <= v < 1e16: log-uniform values there; short decimals nudged by 1 to 3 ulps;
powers of two and of ten, one ulp apart; halves and quarters past 2**49, where two
shortest texts tie; and random bit patterns, most of which the kernel passes to ``repr``.

Run: ``python tests/float_reprs_check.py`` (with the package installed, or
``PYTHONPATH=src``).
"""

import sys

import numpy as np

from brpmarket.market import _float_reprs

BATCHES, BATCH = 20, 50_000  # 10**6 values


def batch(rng: np.random.Generator) -> np.ndarray:
    """One batch of values, a fifth from each family."""
    size = BATCH // 5
    log_uniform = 10.0 ** rng.uniform(-4.0, 16.0, size)
    decimals = (rng.integers(1, 10**9, size) / 10.0 ** rng.integers(0, 13, size)
                * 10.0 ** rng.integers(-4, 8, size))
    for ulps, rows in zip((1, 2, 3), np.array_split(np.arange(size), 4)[1:]):
        for _ in range(ulps):
            decimals[rows] = np.nextafter(decimals[rows], np.where(rows % 2, np.inf, 0.0))
    powers = np.concatenate([np.ldexp(1.0, np.arange(-15, 56)), 10.0 ** np.arange(-5, 18)])
    powers = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    powers = rng.choice(powers, size)
    ties = (rng.integers(2**49, 2**53, size).astype(float)
            + rng.choice([0.25, 0.5, 0.75], size))
    bits = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    return np.concatenate([log_uniform, decimals, powers, ties, bits])


def main() -> int:
    rng = np.random.default_rng(0)
    for k in range(BATCHES):
        values = batch(rng)
        texts = _float_reprs(values)
        expected = np.array(list(map(repr, values.tolist())), dtype=object)
        wrong = np.flatnonzero(texts != expected)
        if wrong.size:
            print(f"batch {k}: {wrong.size} of {values.size} texts differ from repr")
            for i in wrong[:10]:
                print(f"  {expected[i]}: kernel wrote {texts[i]}")
            return 1
    print(f"{BATCHES * BATCH} values: every text equals repr")
    return 0


if __name__ == "__main__":
    sys.exit(main())
