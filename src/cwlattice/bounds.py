"""Size bounds for (n, k, N, d) constant weight codes.

All bounds use exact integer arithmetic; floors and ceilings must be
bit-exact.  Johnson bound 1 applies only when k^2 - kn + (d/2)n > 0,
so inapplicability is an ordinary return value (None), not an error:
parameter tables routinely mix applicable and inapplicable rows.

`bound_report` owns the one upper bound that `search` and `table2` stop
at: the minimum of its entries, each cap evaluated once on (n, k, d) and
a ``complement`` entry, ``johnson2`` on (n, n-k, d).  Complementing every
codeword maps (n, k, d) codes onto (n, n-k, d) codes, and no other cap
changes under it: ``subset_cap`` is C(n,k); ``sphere_packing`` reads
sum C(k,i)*C(n-k,i); ``singleton`` reads max(k, n-k); ``johnson1`` reads
D = delta*n - k(n-k); ``johnson1_refined`` reads the slack
b(n-b) <= N(delta*n - D*N), and b = kN mod n becomes n - b.  Only the
nested floors of ``johnson2`` depend on k itself.  The Gilbert existence
bound is not a cap; it is the report's separate ``lower_bound``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb


def validate_params(n: int, k: int, d: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if d % 2 or not 2 <= d <= 2 * min(k, n - k):
        raise ValueError(
            f"need even d with 2 <= d <= 2*min(k, n-k), got d={d} for (n={n}, k={k})"
        )


def sphere_size(n: int, k: int, r: int) -> int:
    """Number of k-subsets within symmetric distance 2r of a fixed k-subset.

    Equals sum_{i=0..r} C(k, i) * C(n-k, i), independent of the center.
    """
    if not 0 <= r <= min(k, n - k):
        raise ValueError(f"radius must lie in 0..min(k, n-k), got r={r}")
    return sum(comb(k, i) * comb(n - k, i) for i in range(r + 1))


def sphere_packing_bound(n: int, k: int, d: int) -> int:
    """Upper bound C(n,k) / |sphere(t)| with t = floor((d/2 - 1) / 2)."""
    validate_params(n, k, d)
    t = (d // 2 - 1) // 2
    return comb(n, k) // sphere_size(n, k, t)


def sphere_covering_lower(n: int, k: int, d: int) -> int:
    """Gilbert bound: a code of minimum distance >= d with this many codewords
    exists, as each greedy pick rules out a sphere of radius d/2 - 1."""
    validate_params(n, k, d)
    return -(-comb(n, k) // sphere_size(n, k, d // 2 - 1))


def singleton_bound(n: int, k: int, d: int) -> int:
    """Singleton-type bound C(n - (d-2)/2, max(k, n-k)), for d > 2."""
    validate_params(n, k, d)
    if d <= 2:
        raise ValueError("singleton bound is stated for d > 2")
    drop = (d - 2) // 2
    return comb(n - drop, max(k, n - k))


def johnson1(n: int, k: int, delta: int) -> int | None:
    """Restricted Johnson bound floor(delta*n / (k^2 - kn + delta*n)).

    Returns None when the denominator is not positive.
    """
    if delta < 1:
        raise ValueError("delta must be at least 1")
    denom = k * k - k * n + delta * n
    if denom <= 0:
        return None
    return (delta * n) // denom


def johnson1_refined_feasible(n: int, k: int, delta: int, size: int) -> bool:
    """Integer-rounding feasibility test for a code of the given size.

    With kN = na + b, 0 <= b < n, a size-N code requires
    n*a*(a-1) + 2ab <= (k - delta) * N * (N-1).
    """
    if size < 1:
        raise ValueError("code size must be at least 1")
    a, b = divmod(k * size, n)
    return n * a * (a - 1) + 2 * a * b <= (k - delta) * size * (size - 1)


def johnson1_refined(n: int, k: int, delta: int) -> int:
    """One less than the smallest size failing the refined feasibility test.

    This is a valid cap because a code contains codes of every smaller
    size.  Scans upward until the first failure and returns C(n,k) when
    no size up to it fails.  No size can fail when Johnson bound 1 is
    inapplicable, D = k^2 - kn + delta*n <= 0, so the scan is skipped.
    With kN = na + b, n times the test's slack is

        -D*N^2 + delta*n*N - b(n-b) >= k(n-k)N - b(n-b) >= 0:

    the first step is delta*n <= k(n-k) applied to -delta*n*N(N-1); the
    second holds as f(x) = (x mod n)(n - x mod n) = t(n-t), with t the
    distance from x to the nearest multiple of n, is subadditive (t is,
    and t(n-t) is concave in t on [0, n/2]), so b(n-b) = f(kN) <= N f(k).
    """
    cap = comb(n, k)
    if johnson1(n, k, delta) is None:
        return cap
    size = 1
    while size <= cap:
        if not johnson1_refined_feasible(n, k, delta, size):
            return size - 1
        size += 1
    return cap


def johnson2(n: int, k: int, delta: int) -> int:
    """Unrestricted Johnson bound, the nested floors evaluated innermost-out:

        floor(n/k * floor((n-1)/(k-1) * ... * floor((n-(k-delta))/delta)))
    """
    if not 1 <= delta <= k <= n:
        raise ValueError(f"need 1 <= delta <= k <= n, got ({n}, {k}, {delta})")
    value = (n - (k - delta)) // delta
    for i in range(k - delta - 1, -1, -1):
        value = (n - i) * value // (k - i)
    return value


@dataclass
class BoundEntry:
    name: str
    value: int | None
    reason: str = ""

    @property
    def applicable(self) -> bool:
        return self.value is not None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "applicable": self.applicable,
            "reason": self.reason,
        }


@dataclass
class BoundReport:
    """Every cap evaluated for one parameter set, and the existence lower bound."""

    n: int
    k: int
    d: int
    lower_bound: int
    entries: list[BoundEntry] = field(default_factory=list)

    @property
    def upper_bound(self) -> int:
        return min(e.value for e in self.entries if e.applicable)

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "bounds": [e.to_json() for e in self.entries],
            "upper_bound": self.upper_bound,
            "lower_bound": self.lower_bound,
        }


def bound_report(n: int, k: int, d: int) -> BoundReport:
    """Evaluate every cap once on (n, k, d), plus ``johnson2`` on (n, n-k, d),
    the one cap the complement changes: ``upper_bound`` is the least cap on
    either row."""
    validate_params(n, k, d)
    delta = d // 2
    report = BoundReport(n, k, d, sphere_covering_lower(n, k, d))
    add = report.entries.append

    add(BoundEntry("subset_cap", comb(n, k), "number of k-subsets"))
    add(BoundEntry("sphere_packing", sphere_packing_bound(n, k, d)))
    if d > 2:
        add(BoundEntry("singleton", singleton_bound(n, k, d)))
    else:
        add(BoundEntry("singleton", None, "stated for d > 2 only"))
    j1 = johnson1(n, k, delta)
    if j1 is None:
        denom = k * k - k * n + delta * n
        add(BoundEntry("johnson1", None,
                       f"denominator k^2 - kn + delta*n = {denom} is not positive"))
    else:
        add(BoundEntry("johnson1", j1))
    refined = johnson1_refined(n, k, delta)
    trivial = refined >= comb(n, k)
    reason = "feasibility never fails; value is the trivial cap" if trivial else ""
    add(BoundEntry("johnson1_refined", refined, reason))
    add(BoundEntry("johnson2", johnson2(n, k, delta)))
    add(BoundEntry("complement", johnson2(n, n - k, delta),
                   f"johnson2 of (n={n}, k={n - k}, d={d})"))
    return report
