"""The benchmark's workloads: fixed oddcycles command lines.

Each workload is a closed loop with one client: a round runs its commands
one after another, each starting when the previous one has exited, and
the run repeats rounds until its time is up.  Every command's output is
checked against a reference, so the command set is fixed; the seed only
fixes the order in which a round runs its commands.
"""

from __future__ import annotations

import random

SETUP_COMMAND = ["--version"]

WORKLOADS = {
    "verify-default": {
        "why": "the paper's whole cross-check at its defaults; most of its time is the "
               "brute-force enumerator, so an oracle change shows its full effect here",
        "commands": [
            ["verify", "--format", "csv"],
        ],
    },
    "symbolic-deep": {
        "why": "series, transfer steps, recurrences and multi-MB CSV emission with no "
               "enumeration at all; an oracle change should leave it unchanged",
        "commands": [
            ["verify", "--suite", "series", "--series-order", "80"],
            ["verify", "--suite", "pde", "--series-order", "40"],
            ["verify", "--suite", "identities", "--series-order", "60"],
            ["poly", "--kind", "joint", "--n", "300", "--format", "csv"],
            ["poly", "--kind", "f", "--n", "1500", "--format", "csv"],
            ["poly", "--kind", "g", "--n", "1500", "--format", "csv"],
        ],
    },
    "enumerate-list": {
        "why": "the enumerator used the other way: lists 14 400 members one at a time "
               "through the emitters, so a faster count that slows listing shows here",
        "commands": [
            ["enumerate", "--n", "11", "--format", "csv"],
            ["enumerate", "--n", "11", "--format", "json"],
        ],
    },
}


def pass_order(commands: list[list[str]], seed: int) -> list[list[str]]:
    """The commands in the order the seed gives them."""
    order = list(commands)
    random.Random(seed).shuffle(order)
    return order


def all_commands() -> list[list[str]]:
    """Every distinct command the benchmark runs, setup first."""
    out = [SETUP_COMMAND]
    for spec in WORKLOADS.values():
        out.extend(c for c in spec["commands"] if c not in out)
    return out
