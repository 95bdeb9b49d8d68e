"""Structural-join substrate.

The paper builds on the stack-based family of structural join algorithms
(Al-Khalifa et al. ICDE'01, Chien et al. VLDB'02, Bruno et al. SIGMOD'02);
TermJoin "generalizes the stack-based family … to support the IR-style
query processing model".  This package provides that substrate:

- :func:`repro.joins.structural.stack_tree_join` — the Stack-Tree
  ancestor/descendant merge join over start-key-sorted inputs;
- :func:`repro.joins.structural.naive_structural_join` — the quadratic
  nested-loop oracle used by tests;
- :mod:`repro.joins.meet` — the Generalized Meet algorithm (§6.1), the
  strongest baseline against TermJoin.
"""

from repro.joins.structural import (
    stack_tree_join,
    naive_structural_join,
    ancestors_of_postings,
)
from repro.joins.meet import generalized_meet

__all__ = [
    "stack_tree_join",
    "naive_structural_join",
    "ancestors_of_postings",
    "generalized_meet",
]
