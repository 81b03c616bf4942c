"""Whole-program import-graph pass: layering and cycles.

Built from the :class:`~repro.analysis.lint.filepass.ImportFact` records of
every analyzed file.

* **NOC201** — a sim package reaching an orchestration package through an
  import chain of any length, a direct import included.  The violation
  anchors at the import statement in the sim module that starts the
  shortest offending chain, and the chain is spelled out in the message.
* **NOC204** — an import cycle among top-level (non-lazy,
  non-``TYPE_CHECKING``) edges between repro modules.  Lazy imports are
  the sanctioned way to break a cycle, so they are exempt.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.analysis.lint.filepass import FileFacts, ImportFact
from repro.analysis.lint.rules import (
    ORCHESTRATION_PACKAGES,
    RULES,
    SIM_PACKAGES,
    Violation,
    in_packages,
)


@dataclass(frozen=True)
class _Edge:
    src: str
    dst: str
    fact: ImportFact
    path: str  # source file holding the import statement


def _orchestration_package(module: str) -> str | None:
    """The orchestration package dotted *module* lives under, if any."""
    for package in ORCHESTRATION_PACKAGES:
        if in_packages(module, (package,)):
            return package
    return None


class ImportGraph:
    """Module-level import graph over the analyzed file set."""

    def __init__(self, facts: list[FileFacts]) -> None:
        self.modules: set[str] = {f.module for f in facts if f.module}
        self.edges: list[_Edge] = []
        self.out: dict[str, list[_Edge]] = {}
        for file_facts in facts:
            if not file_facts.module:
                continue
            for imp in file_facts.imports:
                dst = self._resolve(imp.module)
                if dst is None or dst == file_facts.module:
                    continue
                edge = _Edge(file_facts.module, dst, imp, file_facts.path)
                self.edges.append(edge)
                self.out.setdefault(file_facts.module, []).append(edge)

    def _resolve(self, imported: str) -> str | None:
        """Longest known-module prefix of *imported* (None = external).

        An orchestration package counts as known even when none of its files
        is in the analyzed set, so a lone sim file that imports it is caught.
        """
        parts = imported.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate
        return _orchestration_package(imported)

    # --- NOC201: layering ------------------------------------------------------

    def check_layering(self) -> list[Violation]:
        violations: list[Violation] = []
        for module in sorted(self.modules):
            if not in_packages(module, SIM_PACKAGES):
                continue
            for chain in self._shortest_orchestration_chains(module):
                first = chain[0]
                rendered = " -> ".join([module] + [edge.dst for edge in chain])
                violations.append(Violation(
                    "NOC201", first.path, first.fact.lineno, first.fact.col,
                    RULES["NOC201"] + f" ({rendered})",
                    first.fact.context,
                ))
        return violations

    def _shortest_orchestration_chains(self, start: str) -> list[list[_Edge]]:
        """BFS: the shortest runtime import chain from *start* into each
        orchestration package it reaches, as the edges walked."""
        via: dict[str, _Edge | None] = {start: None}
        queue: deque[str] = deque([start])
        chains: list[list[_Edge]] = []
        reached: set[str] = set()
        while queue:
            module = queue.popleft()
            for edge in self.out.get(module, []):
                if edge.fact.type_checking:
                    continue  # typing-only: no runtime reach
                if edge.dst in via:
                    continue
                via[edge.dst] = edge
                package = _orchestration_package(edge.dst)
                if package is None:
                    queue.append(edge.dst)
                elif package not in reached:  # never traverse through orchestration
                    reached.add(package)
                    chain = [edge]
                    while (previous := via[chain[0].src]) is not None:
                        chain.insert(0, previous)
                    chains.append(chain)
        return chains

    # --- NOC204: top-level cycles ---------------------------------------------

    def check_cycles(self) -> list[Violation]:
        adjacency: dict[str, list[_Edge]] = {}
        for edge in self.edges:
            if edge.fact.toplevel and not edge.fact.type_checking:
                adjacency.setdefault(edge.src, []).append(edge)

        sccs = _tarjan(sorted(self.modules), adjacency)
        violations: list[Violation] = []
        for scc in sccs:
            if len(scc) < 2:
                continue
            members = sorted(scc)
            anchor_edge: _Edge | None = None
            for module in members:
                for edge in adjacency.get(module, []):
                    if edge.dst in scc:
                        anchor_edge = edge
                        break
                if anchor_edge is not None:
                    break
            if anchor_edge is None:  # pragma: no cover - SCC implies an edge
                continue
            rendered = " -> ".join(members + [members[0]])
            violations.append(Violation(
                "NOC204", anchor_edge.path,
                anchor_edge.fact.lineno, anchor_edge.fact.col,
                RULES["NOC204"] + f" ({rendered})",
                anchor_edge.fact.context,
            ))
        return violations


def _tarjan(
    nodes: list[str], adjacency: dict[str, list[_Edge]]
) -> list[set[str]]:
    """Strongly connected components, iterative Tarjan."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[set[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_i = work[-1]
            if edge_i == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = adjacency.get(node, [])
            while edge_i < len(successors):
                succ = successors[edge_i].dst
                edge_i += 1
                if succ not in index:
                    work[-1] = (node, edge_i)
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                scc: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


def check_project(facts: list[FileFacts]) -> list[Violation]:
    """All import-graph rules over the analyzed file set."""
    graph = ImportGraph(facts)
    violations = graph.check_layering()
    violations.extend(graph.check_cycles())
    return violations
