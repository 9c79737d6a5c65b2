"""Compiled per-query kernel tier (``EngineConfig.codegen``).

The interpreted walk (``CandidateComputer._walk``) walks a plan's
lowered :class:`~repro.core.lowering.LevelProgram` on every frame.
This package *prints that walk as Python source* for one
``(query, schedule)`` pair — the step loop unrolled, gather and set
indices resolved to local variables, label/degree/symmetry constants
frozen as literals — then ``exec``s it once and caches the functions in
a process-wide LRU keyed exactly like the per-graph plan cache
(graph-independent, so worker processes re-derive identical kernels
from the pickled plan + config and never ship code objects).

Emitted code calls the same :mod:`repro.core.levelops` functions as
the interpreter, in the order the same lowering fixed, and those
functions own every :class:`~repro.virtgpu.warp.Warp` charge — so
matches, simulated cycles, steal schedules and tracer event streams are
identical by construction (``tests/test_codegen_identity.py`` still
checks).  Only host wall-clock changes.

Imports run one way: this package imports ``repro.core``; core reaches
it only lazily (``STMatchEngine._make_computer``).
"""
