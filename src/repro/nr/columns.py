"""A placeholder for the retired value interner.

Δ0 formulas are evaluated one assignment at a time
(:func:`repro.logic.semantics.eval_formula`), and NRC expressions one
environment at a time (:mod:`repro.nrc.eval`); no interned-id substrate is
left.  ``perfbench/perf_eval.py`` still builds a :class:`ValueInterner` for
every ``eval_nrc_batch`` call it times (whose ``interner`` argument is
ignored), so the name stays until that benchmark part is renamed
(ROADMAP item 5(b)).
"""

from __future__ import annotations


class ValueInterner:
    """Holds nothing; construct it with no arguments."""

    __slots__ = ()
