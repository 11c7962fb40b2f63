"""The drop definition, transcribed literally, as the reference tests check against.

A drop of the cyclic word w is a pair (w[i], w[(i+1) % n]) whose former
entry exceeds its latter.  The one-element cycle carries one formal drop
onto 1 whose former entry has no parity (None here).  A member is a cycle
all of whose drops land on an odd entry; its statistics tally the drops by
the parities of their two entries.
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
