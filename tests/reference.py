"""The drop definition, transcribed literally, as the reference tests check against.

A drop of the cyclic word w is a pair (w[i], w[(i+1) % n]) whose former
entry exceeds its latter.  The one-element cycle carries one formal drop
onto 1 whose former entry has no parity (None here).  A member is a cycle
all of whose drops land on an odd entry; its statistics tally the drops by
the parities of their two entries.

The module also writes out each closed form's PDE in operator form, on
plain coefficient lists with no BigPoly or TruncSeries, for the series
tests to check pde_residual_of against.
"""


def drops_by_definition(word: tuple[int, ...]) -> list[tuple[int | None, int]]:
    n = len(word)
    if n == 1:
        return [(None, 1)]
    pairs = [(word[i], word[(i + 1) % n]) for i in range(n)]
    return [(former, latter) for former, latter in pairs if former > latter]


def stats_by_definition(word: tuple[int, ...]) -> tuple[int, int]:
    """(odd-odd drops, even-odd drops); the formal drop counts toward neither."""
    kinds = [
        (former % 2, latter % 2)
        for former, latter in drops_by_definition(word)
        if former is not None
    ]
    return kinds.count((1, 1)), kinds.count((0, 1))


def is_member_by_definition(word: tuple[int, ...]) -> bool:
    return all(latter % 2 == 1 for _, latter in drops_by_definition(word))


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
