"""Kernelization toolkit for edge triangle packing and covering.

Reduces an instance to at most ``3k`` vertices through nine reduction rules
(structure pruning, exclusive-K4 contraction, vertex splitting, packing
augmentation, and fat-head crown removal), solves desk-scale instances
exactly, lifts solutions back through the reduction trace, and machine-checks
the discharging argument behind the size bound on every reduced instance.
"""

from .audit import AuditReport, audit_instance
from .gen import GenSpec, generate
from .graph import Graph, GraphError, Instance, ParseError, Variant, load_graph
from .oracle import OracleBudgetError, OracleResult, decide, solve_etc_exact, solve_etp_exact
from .packing import TrianglePacking, greedy_maximal_packing
from .rules import KernelOutcome, RuleEvent, finish, kernelize, lift_solution

__all__ = [
    "AuditReport", "audit_instance", "GenSpec", "generate", "Graph",
    "GraphError", "Instance", "ParseError", "Variant", "load_graph",
    "OracleBudgetError", "OracleResult", "decide", "solve_etc_exact",
    "solve_etp_exact", "TrianglePacking", "greedy_maximal_packing",
    "KernelOutcome", "RuleEvent", "finish", "kernelize", "lift_solution",
]

__version__ = "0.1.0"
