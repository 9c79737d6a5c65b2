"""Codegen-backed candidate computer.

:class:`CodegenCandidateComputer` is a drop-in
:class:`~repro.core.candidates.CandidateComputer` whose
``compute_frame`` runs the compiled per-level functions from
:mod:`repro.codegen.compile` where the base class walks the lowered
program.
All graph-dependent state lives on the inherited
:class:`~repro.core.levelops.LevelOps` instance the kernels receive, so
one compiled kernel serves every data graph.
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import CandidateComputer
from repro.core.config import EngineConfig
from repro.core.levelops import Window
from repro.core.stack import Frame, WarpStack
from repro.graph.csr import CSRGraph
from repro.pattern.plan import MatchingPlan
from repro.virtgpu.warp import Warp

from .compile import compiled_kernel

__all__ = ["CodegenCandidateComputer"]


class CodegenCandidateComputer(CandidateComputer):
    """Evaluates ``getCandidates`` through a compiled per-plan kernel."""

    def __init__(self, graph: CSRGraph, plan: MatchingPlan, config: EngineConfig) -> None:
        super().__init__(graph, plan, config)
        self.kernel = compiled_kernel(plan, config)

    def _walk(self, warp: Warp | None, stack: WarpStack, level: int, slot_arr: np.ndarray,
              win: Window | None) -> Frame | np.ndarray:
        result: Frame | np.ndarray = self.kernel.levels[level](self.ops, warp, stack, slot_arr, win)
        return result
