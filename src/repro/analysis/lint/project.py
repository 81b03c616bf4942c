"""Whole-program import-graph pass: transitive layering and cycles.

Built from the :class:`~repro.analysis.lint.filepass.ImportFact` records of
every analyzed file.

* **NOC203** — a sim package reaching an orchestration package through an
  import *chain* (NOC201 only sees direct edges).  The violation anchors
  at the import statement in the sim module that starts the shortest
  offending chain, and the chain is spelled out in the message.
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
        """Longest known-module prefix of *imported* (None = external)."""
        parts = imported.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate
        return None

    # --- NOC203: transitive layering ------------------------------------------

    def check_transitive_layering(self) -> list[Violation]:
        violations: list[Violation] = []
        sim_modules = [
            m for m in sorted(self.modules) if in_packages(m, SIM_PACKAGES)
        ]
        for module in sim_modules:
            flagged_targets: set[str] = set()
            for chain in self._shortest_orchestration_chains(module):
                target_pkg = next(
                    p for p in ORCHESTRATION_PACKAGES
                    if in_packages(chain[-1], (p,))
                )
                if target_pkg in flagged_targets:
                    continue
                flagged_targets.add(target_pkg)
                if len(chain) < 3:
                    continue  # direct import: NOC201's jurisdiction
                first = self.out[module][0]
                for edge in self.out.get(module, []):
                    if edge.dst == chain[1]:
                        first = edge
                        break
                rendered = " -> ".join(chain)
                violations.append(Violation(
                    "NOC203", first.path, first.fact.lineno, first.fact.col,
                    RULES["NOC203"] + f" ({rendered})",
                    first.fact.context,
                ))
        return violations

    def _shortest_orchestration_chains(self, start: str) -> list[list[str]]:
        """BFS shortest chain from *start* to each orchestration package."""
        parent: dict[str, str] = {start: ""}
        queue: deque[str] = deque([start])
        chains: list[list[str]] = []
        seen_packages: set[str] = set()
        while queue:
            module = queue.popleft()
            for edge in self.out.get(module, []):
                if edge.fact.type_checking:
                    continue  # typing-only: no runtime reach
                if edge.dst in parent:
                    continue
                parent[edge.dst] = module
                if in_packages(edge.dst, ORCHESTRATION_PACKAGES):
                    pkg = next(
                        p for p in ORCHESTRATION_PACKAGES
                        if in_packages(edge.dst, (p,))
                    )
                    if pkg not in seen_packages:
                        seen_packages.add(pkg)
                        chain = [edge.dst]
                        node = module
                        while node:
                            chain.append(node)
                            node = parent[node]
                        chains.append(list(reversed(chain)))
                    continue  # don't traverse through orchestration
                queue.append(edge.dst)
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
    violations = graph.check_transitive_layering()
    violations.extend(graph.check_cycles())
    return violations
