"""The drop definition, transcribed literally, as the reference tests check against.

A word is ``bytes``, one byte per entry, as the package stores it; ``W``
writes one from its entries, and ``canonical`` writes a cycle's word from any
of its rotations.  A drop of the cyclic word w is a pair (w[i], w[(i+1) % n]) whose former
entry exceeds its latter.  The one-element cycle carries one formal drop
onto 1 whose former entry has no parity (None here).  A member is a cycle
all of whose drops land on an odd entry; its statistics tally the drops by
the parities of their two entries.

The module also writes out each closed form's PDE in operator form, in the
family variable v, on plain coefficient lists with no BigPoly or
TruncSeries, for the series tests to check pde_residual_of against; that
function reads a series in u = 1 - v, and at_one_minus rewrites a
polynomial from either basis into the other.  Last, it writes the joint
transfer step term by term on plain dicts {(i, j): coefficient}, for the
generating-tree tests to check the packed walk against.
"""

from math import comb


def W(*entries: int) -> bytes:
    """The word with these entries, as the package stores a canonical word."""
    return bytes(entries)


def canonical(perm) -> bytes:
    """The word of a permutation of {1, ..., n} read as a cycle: its rotation starting with 1."""
    perm = list(perm)
    pivot = perm.index(1)
    return bytes(perm[pivot:] + perm[:pivot])


def drops_by_definition(word: bytes) -> list[tuple[int | None, int]]:
    n = len(word)
    if n == 1:
        return [(None, 1)]
    pairs = [(word[i], word[(i + 1) % n]) for i in range(n)]
    return [(former, latter) for former, latter in pairs if former > latter]


def stats_by_definition(word: bytes) -> tuple[int, int]:
    """(odd-odd drops, even-odd drops); the formal drop counts toward neither."""
    kinds = [
        (former % 2, latter % 2)
        for former, latter in drops_by_definition(word)
        if former is not None
    ]
    return kinds.count((1, 1)), kinds.count((0, 1))


def is_member_by_definition(word: bytes) -> bool:
    return all(latter % 2 == 1 for _, latter in drops_by_definition(word))


# -- the joint transfer step, term by term -------------------------------


def joint_step_by_definition(terms: dict, n: int, odd: bool) -> dict:
    """The transfer step with parameter n on {(i, j): c}, c*x^i*y^j each.

    The even step sends c*x^i*y^j to
    c*(i*x^(i-1)*y^(j+1) + j*x^i*y^j + (n-i-j)*x^i*y^(j+1)); the odd step is
    the even step with x and y exchanged.
    """
    out: dict = {}
    for (i, j), c in terms.items():
        if odd:
            i, j = j, i
        for (p, q), times in (((i - 1, j + 1), i), ((i, j), j), ((i, j + 1), n - i - j)):
            if times:
                key = (q, p) if odd else (p, q)
                out[key] = out.get(key, 0) + c * times
    return {key: c for key, c in out.items() if c}


def at_one_plus(terms: dict) -> dict:
    """f(x, y) -> f(1 + a, 1 + b), as {(i, j): the coefficient of a^i*b^j}."""
    out: dict = {}
    for (i, j), c in terms.items():
        for p in range(i + 1):
            for q in range(j + 1):
                out[p, q] = out.get((p, q), 0) + c * comb(i, p) * comb(j, q)
    return {key: c for key, c in out.items() if c}


def at_one_minus(p: list[int]) -> list[int]:
    """p(x) -> p(1 - x) by the binomial theorem, lowest degree first: a
    polynomial in u = 1 - v written in v, or one in v written in u."""
    out = [0] * len(p)
    for j, c in enumerate(p):
        for k in range(j + 1):
            out[k] += (-1) ** k * comb(j, k) * c
    return _trim(out)


# -- the PDE of each closed form, in operator form ------------------------
#
# A polynomial in v is a list of integer coefficients, lowest degree first;
# a series is a list of such polynomials, one per power of t.  The equations
# are transcribed from the pde_residual_of docstring, with u = 1 - v:
#
#   (S - source)/t = v*u^2*S_vv + 2*v*u*t*S_vt + v*t^2*S_tt
#                    + (S_v coefficient)*S_v + (t*S_t coefficient)*t*S_t

# coefficients of S_vv, t*S_vt and t^2*S_tt, shared by all four families
SECOND_ORDER = {"vv": [0, 1, -2, 1], "vt": [0, 2, -2], "tt": [0, 1]}

# per family: the S_v coefficient, the t*S_t coefficient and the source's
# coefficient of t
FIRST_ORDER = {
    "oo_even": ([1, -2, 1], [1, 1], [1]),  # u^2*S_v + (1+v)*t*S_t, source t
    "oo_odd": ([0, -1, 1], [0, 1], [1]),  # -v*u*S_v + v*t*S_t, source t
    "eo_even": ([], [0, 2], [0, 1]),  # 2*v*t*S_t, source v*t
    "eo_odd": ([1, -3, 2], [1], [1]),  # u*(1-2*v)*S_v + t*S_t, source t
}


def _trim(p: list[int]) -> list[int]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(p: list[int], q: list[int]) -> list[int]:
    longer, shorter = (p, q) if len(p) >= len(q) else (q, p)
    return _trim([c + (shorter[i] if i < len(shorter) else 0) for i, c in enumerate(longer)])


def _mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _d_v(s: list[list[int]]) -> list[list[int]]:
    return [_trim([i * c for i, c in enumerate(p)][1:]) for p in s]


def _d_t(s: list[list[int]]) -> list[list[int]]:
    """d/dt; one order shorter, as the top coefficient would need t^(order+1)."""
    return [_mul([n], p) for n, p in enumerate(s)][1:]


def _times_t(s: list[list[int]], k: int) -> list[list[int]]:
    return [[]] * k + s


def pde_residual_by_operators(s, which, second=SECOND_ORDER) -> list[list[int]]:
    """(S - source)/t minus the right-hand side, through t^(order-1), for a
    series S of the given order with zero constant term."""
    if any(s[0]):
        raise ValueError("S/t needs a zero constant term")
    s_v_coeff, t_s_t_coeff, source = FIRST_ORDER[which]
    s_v, s_t = _d_v(s), _d_t(s)
    terms = [
        (second["vv"], _d_v(s_v)),
        (second["vt"], _times_t(_d_t(s_v), 1)),
        (second["tt"], _times_t(_d_t(s_t), 2)),
        (s_v_coeff, s_v),
        (t_s_t_coeff, _times_t(s_t, 1)),
    ]
    lhs = [_add(p, _mul([-1], source) if n == 1 else []) for n, p in enumerate(s)][1:]
    out = []
    for n, left in enumerate(lhs):
        right = []
        for coeff, term in terms:
            right = _add(right, _mul(coeff, term[n]))
        out.append(_add(left, _mul([-1], right)))
    return out
