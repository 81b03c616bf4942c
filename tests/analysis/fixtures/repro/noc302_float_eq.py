"""Lint fixture: float equality comparisons (NOC302).

The ``repro/`` path component makes this the module ``repro.noc302_float_eq``:
the rule looks only inside the package, never at tests.
"""


def exact(energy: float) -> bool:
    return energy == 0.5


def negated(temp: float) -> bool:
    return temp != -1.5


def integer_ok(count: int) -> bool:
    # Integer equality is exact and stays legal.
    return count == 4
