"""Proof-witness store and hand-written witnesses.

The paper's pipeline — implicit Δ0 specification → determinacy proof →
interpolant → NRC program — recomputes everything from scratch per spec.
This package persists checked determinacy proofs ("witnesses") in a
content-addressed, crash-safe disk tier beside the existing result/program
caches, so a goal proved once is replayed instead of searched again:

* :mod:`repro.witness.store`       — the ``witnesses/`` disk tier: SHA-256
  digests over canonical sequent renderings, format-versioned payloads,
  atomic write-then-rename, every corrupt or stale payload a clean cold
  fall-back;
* :mod:`repro.witness.handwritten` — the hand-written determinacy witnesses
  for the ``hard`` registry entries (Examples 1.1 / 4.1), scripted in a
  small LCF-style tactic engine over the Figure 3 rule constructors and
  re-checked by ``proofs/checker.py``.

The package re-exports nothing: the pipeline imports only
:mod:`~repro.witness.store`, and the tactic engine loads when a caller
imports :mod:`~repro.witness.handwritten`.
"""
