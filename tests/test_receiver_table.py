"""The receiver table's merged formulas against the per-scheme reference rows."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hrislink.identifiability import flops_estimate, min_subframes
from hrislink.scenario import ScenarioConfig

ROWS = [
    ("bals", "hris", "tstc"), ("kronf", "hris", "tstc"), ("bals", "bs", "tstc"),
    ("kronf", "bs", "tstc"), ("bals", "hris", "krstc"), ("krf", "hris", "krstc"),
    ("bals", "bs", "krstc"), ("kronf", "bs", "krstc"), ("h", "bs", "tstc"), ("h", "bs", "krstc"),
]


def reference_min_subframes(key, *, m, n, nc, l, r, t):
    """One threshold formula per (receiver, entity, scheme) row, as in the paper."""
    value = {
        ("bals", "hris", "tstc"): Fraction(max(Fraction(r), Fraction(l * n, t)), nc),
        ("kronf", "hris", "tstc"): Fraction(l * r * n, nc),
        ("bals", "bs", "tstc"): max(Fraction(r, m), Fraction(n, t)),
        ("kronf", "bs", "tstc"): Fraction(r * n),
        ("bals", "hris", "krstc"): Fraction(max(Fraction(l), Fraction(l * n, t)), nc),
        ("krf", "hris", "krstc"): Fraction(l * n, nc),
        ("bals", "bs", "krstc"): max(Fraction(l, m), Fraction(n, t)),
        ("kronf", "bs", "krstc"): Fraction(l * n),
        ("h", "bs", "tstc"): Fraction(n, t),
        ("h", "bs", "krstc"): Fraction(n, t),
    }[key]
    return math.ceil(value)


def reference_flops(key, iterations, *, m, n, nc, l, r, t, k):
    """One flop formula per row; the ALS rows are per iteration."""
    per_iteration = {
        ("bals", "hris", "tstc"): k * nc * (r**2 + l**2 * n**2 * t),
        ("bals", "bs", "tstc"): k * (r**2 * m + n**2 * t),
        ("bals", "hris", "krstc"): l**2 * k * nc * (1 + n**2 * t),
        ("bals", "bs", "krstc"): k * (l**2 * m + n**2 * t),
    }
    single = {
        ("kronf", "hris", "tstc"): l * r * n * (l * r * n * k * nc + t),
        ("kronf", "bs", "tstc"): r * n * (r * n * k + t * m),
        ("krf", "hris", "krstc"): l * n * (l * n * k * nc + t),
        ("kronf", "bs", "krstc"): l * n * (l * n * k + t * m),
        ("h", "bs", "tstc"): k * n**2 * t,
        ("h", "bs", "krstc"): k * n**2 * t,
    }
    if key in per_iteration:
        return float(per_iteration[key] * iterations)
    return float(single[key])


size = st.integers(min_value=1, max_value=64)
subframes = st.integers(min_value=0, max_value=6).map(lambda e: 1 << e)  # configs need a power of two


@settings(max_examples=200, deadline=None)
@given(m=size, n=size, nc=size, l=size, r=size, t=size, k=subframes,
       iterations=st.integers(min_value=0, max_value=300))
def test_merged_formulas_match_reference_rows(m, n, nc, l, r, t, k, iterations):
    for key in ROWS:
        scheme = key[2]
        rows = r if scheme == "tstc" else l
        cfg = ScenarioConfig(m=m, n=n, nc=nc, l=l, r=rows, t=t, k=k, scheme=scheme)
        dims = dict(m=m, n=n, nc=nc, l=l, r=rows, t=t)
        assert min_subframes(cfg, *key) == reference_min_subframes(key, **dims), key
        assert flops_estimate(cfg, *key, iterations=iterations) == \
            reference_flops(key, iterations, k=k, **dims), key
