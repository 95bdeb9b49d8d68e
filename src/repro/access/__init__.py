"""Access methods (§5-6): the performance layer of the reproduction.

Score-generating methods:

- :class:`~repro.access.termjoin.TermJoin` — the stack-based TermJoin
  (Fig. 11), simple and complex scoring modes;
- :class:`~repro.access.termjoin.EnhancedTermJoin` — child counts from
  the structure index instead of navigation (§6.1);
- :class:`~repro.access.phrasefinder.PhraseFinder` — phrase verification
  during posting intersection via word offsets (§5.1.2);
- :func:`~repro.joins.meet.generalized_meet` — the Generalized Meet
  baseline (re-exported here for symmetry).

Baselines:

- :class:`~repro.access.composite.Comp1` — direct composite of standard
  operators (per-term selection → grouping → scored union);
- :class:`~repro.access.composite.Comp2` — composite with structural
  joins pushed down (full element-table joins);
- :class:`~repro.access.composite.Comp3` — phrase baseline
  (intersect-then-refetch-and-filter).

Score-utilizing methods:

- :class:`~repro.access.pick.PickAccess` — the stack-based Pick evaluator
  (Fig. 12).
"""

from repro.access.composite import Comp1, Comp2, Comp3
from repro.access.phrasefinder import PhraseFinder, PhraseOccurrence
from repro.access.phrasejoin import PhraseJoin
from repro.access.pick import PickAccess
from repro.access.results import PhraseMatch, ScoredColumns, ScoredElement
from repro.access.termjoin import EnhancedTermJoin, TermJoin
from repro.joins.meet import generalized_meet

__all__ = [
    "Comp1",
    "Comp2",
    "Comp3",
    "PhraseFinder",
    "PhraseOccurrence",
    "PhraseJoin",
    "PickAccess",
    "PhraseMatch",
    "ScoredColumns",
    "ScoredElement",
    "EnhancedTermJoin",
    "TermJoin",
    "generalized_meet",
]
