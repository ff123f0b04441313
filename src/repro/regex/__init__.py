"""Regular-expression substrate for FREE.

This subpackage is a self-contained regex engine implementing the syntax
of Table 1 of the paper (plus the ``{m,n}`` counted repetition the
``sigmod`` benchmark query needs):

- :mod:`repro.regex.charclass` — character sets over a finite alphabet;
- :mod:`repro.regex.ast` — the abstract syntax tree;
- :mod:`repro.regex.parser` — pattern text -> AST;
- :mod:`repro.regex.nfa` — Thompson construction (AST -> epsilon-NFA);
- :mod:`repro.regex.dfa` — subset construction and Hopcroft minimization;
- :mod:`repro.regex.matcher` — corpus-oriented substring matching, with a
  literal *anchoring* prefilter (and ``to_stdlib_pattern``, the
  translation the test suite's stdlib-``re`` oracle uses);
- :mod:`repro.regex.rewrite` — OR/STAR normal form and literal analysis
  used by the query planner.
"""

from __future__ import annotations

from repro.regex.parser import parse
from repro.regex.matcher import Matcher, compile_matcher

__all__ = ["parse", "Matcher", "compile_matcher"]
