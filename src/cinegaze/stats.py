"""Statistical tests: Pearson correlation, one-way ANOVA, Welch's t-test.

Tail probabilities come from the regularized incomplete beta function
(scipy.special.betainc behind an argument-checking wrapper). The classic
identities used:

* two-sided t-test p-value: I_{df/(df+t^2)}(df/2, 1/2)
* upper F tail: I_{df2/(df2+df1*F)}(df2/2, df1/2)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from scipy import special

from .errors import InputError, UndefinedValueError


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise InputError("betainc requires positive shape parameters")
    if x < 0.0 or x > 1.0:
        raise InputError(f"betainc argument outside [0, 1]: {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    return float(special.betainc(a, b, x))


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided p-value for a t statistic."""
    if df <= 0:
        raise InputError(f"degrees of freedom must be positive, got {df}")
    if math.isinf(t):
        return 0.0
    return betainc(df / 2.0, 0.5, df / (df + t * t))


def f_sf(f_stat: float, df1: float, df2: float) -> float:
    """Upper tail probability of the F distribution."""
    if df1 <= 0 or df2 <= 0:
        raise InputError("degrees of freedom must be positive")
    if f_stat < 0:
        raise InputError(f"F statistic must be non-negative, got {f_stat}")
    if math.isinf(f_stat):
        return 0.0
    return betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f_stat))


def pearson(x: Sequence[float], y: Sequence[float]) -> tuple:
    """Pearson r and the two-sided p-value of the t-transformed statistic.

    Correlations within 1e-12 of +-1 are reported as exactly +-1 (float
    arithmetic cannot distinguish them from exactly collinear input);
    their p-value is 0. Non-finite values are an InputError.
    """
    if len(x) != len(y):
        raise InputError("pearson requires series of equal length")
    n = len(x)
    if n < 3:
        raise InputError(f"pearson requires at least 3 pairs, got {n}")
    if not all(math.isfinite(v) for v in itertools.chain(x, y)):
        raise InputError("pearson requires finite values")
    mx = sum(x) / n
    my = sum(y) / n
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    sxx = sum(v * v for v in dx)
    syy = sum(v * v for v in dy)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedValueError("pearson undefined for a constant series")
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    r = min(1.0, max(-1.0, r))
    if 1.0 - r * r < 1e-12:
        return (math.copysign(1.0, r), 0.0)
    df = n - 2
    t2 = r * r * df / (1.0 - r * r)
    return (r, betainc(df / 2.0, 0.5, df / (df + t2)))


@dataclass(frozen=True)
class AnovaResult:
    f: float
    df_between: int
    df_within: int
    p: float
    group_names: tuple
    group_sizes: tuple


def one_way_anova(groups: Sequence[Sequence[float]],
                  names: Optional[Sequence[str]] = None) -> AnovaResult:
    """Classic one-way ANOVA between/within decomposition.

    F is the ratio of mean squares; p is the upper F tail. If the within
    variance is zero but the between variance is not, F is infinite and p
    is 0.
    """
    k = len(groups)
    if k < 2:
        raise InputError(f"one_way_anova requires at least 2 groups, got {k}")
    for i, g in enumerate(groups):
        if len(g) < 2:
            raise InputError(f"group {i} has fewer than 2 values")
    if names is None:
        names = tuple(f"g{i}" for i in range(k))
    elif len(names) != k:
        raise InputError("names must match the number of groups")
    sizes = tuple(len(g) for g in groups)
    total_n = sum(sizes)
    grand = sum(sum(g) for g in groups) / total_n
    means = [sum(g) / len(g) for g in groups]
    ss_between = sum(n_i * (m_i - grand) ** 2 for n_i, m_i in zip(sizes, means))
    ss_within = sum(sum((v - m_i) ** 2 for v in g) for g, m_i in zip(groups, means))
    df_between = k - 1
    df_within = total_n - k
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    if ms_within == 0.0:
        if ms_between == 0.0:
            raise UndefinedValueError("one_way_anova undefined: no variance at all")
        return AnovaResult(math.inf, df_between, df_within, 0.0, tuple(names), sizes)
    f_stat = ms_between / ms_within
    return AnovaResult(f_stat, df_between, df_within,
                       f_sf(f_stat, df_between, df_within), tuple(names), sizes)


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> tuple:
    """Welch's unequal-variance t-test with Welch-Satterthwaite df.

    Returns (t, two-sided p).
    """
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise InputError("welch_t_test requires at least 2 values per sample")
    ma = sum(a) / na
    mb = sum(b) / nb
    va = sum((v - ma) ** 2 for v in a) / (na - 1)
    vb = sum((v - mb) ** 2 for v in b) / (nb - 1)
    se2 = va / na + vb / nb
    if se2 == 0.0:
        raise UndefinedValueError("welch_t_test undefined: both samples degenerate")
    t = (ma - mb) / math.sqrt(se2)
    df = se2 * se2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return (t, t_sf_two_sided(t, df))
