"""DOT emission for Hasse diagrams, with deterministic node order."""

from __future__ import annotations

from .semilattice import JoinSemilattice


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cover_pairs(L: JoinSemilattice) -> list[tuple[int, int]]:
    """The Hasse covers: (a, b) with a < b and nothing strictly between."""
    covers = []
    for a in L.elements():
        for b in L.elements():
            if a == b or not L.leq[a][b]:
                continue
            if any(c != a and c != b and L.leq[a][c] and L.leq[c][b] for c in L.elements()):
                continue
            covers.append((a, b))
    return covers


def hasse_dot(L: JoinSemilattice, graph_name: str = "hasse") -> str:
    """Hasse diagram of the order, edges pointing from lower to higher."""
    lines = [f"digraph {graph_name} {{", "  rankdir=BT;"]
    for i in range(L.size):
        lines.append(f"  n{i} [label={_quote(L.names[i])}];")
    for a, b in sorted(cover_pairs(L)):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
