"""Seeded, pure generators of scenario documents for the benchmark.

Each generator depends only on its arguments: the same ``seed`` gives the
same document, byte for byte once encoded with :func:`encode`.  The program
under test receives only these documents (as dicts or as JSON files).

Cost coefficients are the demo's ``beta1 = 0.5``, ``beta2 = 0.6`` divided by
N, so the aggregate price stays near the mean consumption whatever N is and
the default step size stays near 0.2.  With these coefficients the market
settles in a number of iterations that hardly depends on the seed, which
keeps the benchmark's run-to-run spread small.
"""

from __future__ import annotations

import json

import numpy as np

# A daily cap this large never binds: consumption never exceeds the
# satiation energy sum(w/alpha) <= 100 * T.
SLACK_D_MAX_PER_SLOT = 1000.0


def encode(doc: dict) -> bytes:
    """Canonical JSON bytes of a scenario document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _document(num_slots, w, d_min, d_max, b, n) -> dict:
    customers = [
        {"id": i, "w": [float(v) for v in w[i]], "alpha": 1.0,
         "d_min": float(d_min[i]), "d_max": float(d_max[i])}
        for i in range(n)
    ]
    return {
        "num_slots": num_slots,
        "customers": customers,
        "blocks": {"b": b},
        "cost": {"beta1": 0.5 / n, "beta2": 0.6 / n},
    }


def slack_document(seed, n: int, t: int) -> dict:
    """Slack daily band: willingness in [10, 100], block threshold 25.

    Consumption settles on both sides of the threshold and the daily-band
    projection always takes its early exit.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(10.0, 100.0, size=(n, t))
    return _document(t, w, np.zeros(n), np.full(n, SLACK_D_MAX_PER_SLOT * t),
                     25.0, n)


def band_document(seed, n: int, t: int, side: str) -> dict:
    """Binding daily band with consumption on both sides of the threshold.

    Willingness in [40, 60] puts unconstrained consumption near 25 per slot;
    per-slot thresholds in [20, 32] straddle it.  ``side="cap"`` draws a
    daily cap of 18 to 22 per slot, ``side="floor"`` a daily floor of 28 to
    32 per slot, so every customer's band binds and every projection call
    bisects.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(40.0, 60.0, size=(n, t))
    b = [float(v) for v in rng.uniform(20.0, 32.0, size=t)]
    band = rng.uniform(size=n)
    if side == "cap":
        d_min, d_max = np.zeros(n), (18.0 + 4.0 * band) * t
    elif side == "floor":
        d_min, d_max = (28.0 + 4.0 * band) * t, np.full(n, SLACK_D_MAX_PER_SLOT * t)
    else:
        raise ValueError(f"side must be 'cap' or 'floor', got {side!r}")
    return _document(t, w, d_min, d_max, b, n)
