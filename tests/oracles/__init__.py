"""Reference implementations the production fast paths are locked against.

* :mod:`oracles.autodiff` — a reverse-mode autodiff engine over NumPy.
* :mod:`oracles.nn` — the surrogate MLP, Adam and training loop on that
  engine; :class:`repro.nn.fused.FusedMLP` must match it bit for bit.
* :mod:`oracles.mna` — linear netlists, a modified nodal analysis solver
  and each topology's equivalent small-signal netlist; the closed-form
  metrics must agree with its AC sweeps.
* :mod:`oracles.search` — the select-evaluate-append step the pre-refactor
  search loop was written in.

Nothing under ``src/`` imports this package.
"""
