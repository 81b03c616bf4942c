"""Adaptive routing: the west-first turn model with congestion-aware
output selection.

The paper's Table 1 configuration uses deterministic X-Y routing; its
related work (Vicis, Ariadne, QORE) handles permanent faults with adaptive
routing.  This module provides that extension: minimal west-first routing
(Glass & Ni's turn model — deadlock-free because the two west-bound turns
are forbidden) with a selection function that prefers less congested
downstream routers.  Faults need no say here: ``Router.compute_route``
selects among ``Topology.live_candidates``, the candidates without the
outputs over dead links or into dead routers.

Enable it per configuration::

    NocConfig(routing="west_first")
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.noc.routing import EAST, LOCAL, NORTH, SOUTH, WEST, Direction, xy_route


def west_first_candidates(current: int, dst: int, width: int) -> list[Direction]:
    """Minimal productive directions under the west-first turn model.

    If the destination lies to the west, all west hops must be taken
    first (no turns into WEST are allowed later); otherwise any minimal
    combination of EAST/NORTH/SOUTH may be taken adaptively.

    >>> west_first_candidates(9, 0, 8)  # dst is south-west: west first
    [<Direction.WEST: 2>]
    >>> sorted(d.name for d in west_first_candidates(0, 17, 8))
    ['EAST', 'NORTH']
    """
    if current == dst:
        return [LOCAL]
    cx, cy = current % width, current // width
    dx, dy = dst % width, dst // width
    if dx < cx:
        return [WEST]
    candidates = []
    if dx > cx:
        candidates.append(EAST)
    if dy > cy:
        candidates.append(NORTH)
    elif dy < cy:
        candidates.append(SOUTH)
    return candidates


def xy_candidates(current: int, dst: int, width: int) -> list[Direction]:
    """Deterministic X-Y as a single-candidate list (the Table 1 default)."""
    return [xy_route(current, dst, width)]


CANDIDATE_FUNCTIONS: dict[str, Callable[[int, int, int], list[Direction]]] = {
    "xy": xy_candidates,
    "west_first": west_first_candidates,
}


def select_output(
    candidates: Sequence[Direction],
    free_slots: Callable[[Direction], int],
) -> Direction:
    """Pick one productive direction.

    The candidate with the most free downstream buffer slots wins (the
    first one on a tie): congestion-aware adaptivity.  With a single
    candidate this degenerates to deterministic routing.
    """
    if not candidates:
        raise ValueError("no productive directions")
    if len(candidates) == 1:
        return candidates[0]  # arrival (an ejection port) or deterministic
    return max(candidates, key=free_slots)
