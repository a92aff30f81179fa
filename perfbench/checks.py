"""Correctness checks on the program's answers, run outside timed regions.

Each check returns ``(ok, what)``; ``what`` says what was wrong.
"""

from __future__ import annotations


def check_coreness(result, exact) -> tuple:
    """Theorem I.1's sandwich ``c(v) <= b_v <= γ·r(v)`` against exact coreness.

    The maximal density ``r(v)`` is not computed; ``c(v)`` stands in for it
    (``r(v) <= c(v)``), which keeps the check implied by the theorem.
    """
    from repro.analysis.invariants import check_sandwich

    report = check_sandwich(result.values, exact, exact, result.guarantee,
                            lam=result.lam)
    return report.holds, f"coreness sandwich: {report.violations[:3]}"


def check_orientation(graph, result) -> tuple:
    """Definition III.7's invariants, and every edge assigned exactly once."""
    from repro.analysis.invariants import check_orientation_invariants
    from repro.core.orientation import canonical_edge

    report = check_orientation_invariants(graph, result.values,
                                          result.surviving.kept)
    if not report.holds:
        return False, f"orientation invariants: {report.violations[:3]}"
    assignment = result.orientation.assignment
    edges = [(u, v) for u, v, _ in graph.edges() if u != v]
    once = len(assignment) == len(edges) and all(
        assignment.get(canonical_edge(u, v)) in (u, v) for u, v in edges)
    return once, "orientation does not assign every edge exactly once"


def check_densest(graph, result, exact) -> tuple:
    """Definition IV.1 with ρ* bounded below by half the top coreness.

    The densest subgraph is at least as dense as the top k-core, whose
    density is at least ``k/2``; a subset reaching ``ρ*/γ`` therefore also
    reaches ``(k/2)/γ``.
    """
    from repro.analysis.invariants import check_weak_densest_definition

    required = max(exact.values(), default=0.0) / 2.0 / result.gamma
    report = check_weak_densest_definition(graph, result.subsets, required)
    return report.holds, f"weak densest: {report.violations[:3]}"
