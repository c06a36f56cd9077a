"""Bursty VR traffic toolkit.

Generates, transmits, reassembles, simulates, and fits application-layer
burst traffic shaped like VR video streams: logistic inter-frame intervals,
Gaussian-mixture frame sizes, and fragment-level wire framing with
best-effort reassembly.

The Python API is the submodules: ``vrburst.generator``, ``vrburst.model``,
``vrburst.rv``, ``vrburst.sim``, ``vrburst.wire``, ``vrburst.fit`` and
``vrburst.cli``.
"""

from .rv import RNG_ALGORITHM  # noqa: F401  (perfbench/run.py reads vrburst.RNG_ALGORITHM)

__version__ = "0.1.0"
