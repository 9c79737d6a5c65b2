"""Per-(query, schedule) kernel source emission.

:func:`emit_kernel_source` lowers one :class:`~repro.pattern.plan.
MatchingPlan` (:func:`repro.core.lowering.lower`, with the two config
knobs that shape candidate computation — ``degree_filter`` and whether
a bitmap index exists) and prints each :class:`~repro.core.lowering.
LevelProgram` as one straight-line ``level_{l}`` function: the walk
``CandidateComputer._walk`` performs per frame, unrolled, with gather /
tile / set indices resolved to local variables and the fused-filter
constants frozen as literals.  Every run-time step is a call into the
:class:`~repro.core.levelops.LevelOps` instance ``ops`` the function
receives — the emitter prints no arithmetic and no cost-model call, so
the compiled tier cannot drift from the interpreted one.

Everything graph-dependent is reached through ``ops`` at run time, so
the emitted source is **graph-independent** — exactly what
:func:`codegen_key` promises — and **deterministic**: emitting the same
plan twice yields byte-identical source (no timestamps, no
set-iteration order, no object ids).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.lowering import Leaf, LevelProgram, SetStep, Src, lower

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import EngineConfig
    from repro.pattern.plan import MatchingPlan

__all__ = [
    "SOURCE_BUDGET_BYTES",
    "codegen_key",
    "emit_kernel_source",
    "estimate_source_size",
]

#: lint budget (rule B408): plans whose generated module would exceed
#: this many source bytes compile slowly and blow the code cache's
#: usefulness — the per-label split layout (Fig. 10a) is the canonical
#: offender, same as for the shared-memory budget
SOURCE_BUDGET_BYTES = 131_072


def codegen_key(plan: MatchingPlan, config: EngineConfig) -> tuple[Any, ...]:
    """Graph-independent cache key for a compiled kernel.

    Keyed like the per-graph plan cache: everything that shapes the
    emitted source — and nothing that doesn't (``config.unroll`` sizes
    the slot batches at run time, not the code).  ``plan.order`` is the
    *resolved* matching order (order selection may have consulted a
    data graph, but the program is a pure function of the order), so
    two graphs sharing a query + schedule share one compiled kernel,
    and process-pool workers re-derive it from the pickled
    ``(plan, config)`` instead of shipping code objects.
    """
    return (
        plan.query,
        plan.vertex_induced,
        plan.symmetry_breaking,
        plan.code_motion,
        tuple(plan.order),
        bool(config.degree_filter),
        config.bitmap_threshold is not None,
    )


def estimate_source_size(plan: MatchingPlan, config: EngineConfig) -> int:
    """Byte size of the module :func:`emit_kernel_source` would emit."""
    return len(emit_kernel_source(plan, config).encode("utf-8"))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


class _Writer:
    """Tiny indented line buffer."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def __call__(self, line: str = "", ind: int = 0) -> None:
        self.lines.append("    " * ind + line if line else "")


def emit_kernel_source(plan: MatchingPlan, config: EngineConfig) -> str:
    """Emit the specialized kernel module for ``plan`` (deterministic)."""
    degree_filter = bool(config.degree_filter)
    bitmap_on = config.bitmap_threshold is not None
    w = _Writer()
    w('"""Generated STMatch kernel (repro.codegen) -- DO NOT EDIT.')
    w()
    w(f"plan: size={plan.size} sets={plan.program.num_sets} order={tuple(plan.order)}")
    w(f"      induced={plan.vertex_induced} symmetry={plan.symmetry_breaking} "
      f"code_motion={plan.code_motion}")
    w(f"config: degree_filter={degree_filter} bitmap={bitmap_on}")
    w()
    w("One straight-line function per stack level: the lowered level")
    w("program's walk, unrolled.  Every step is a repro.core.levelops call")
    w("(the NumPy work and its Warp cost), so matches AND simulated")
    w("cycles equal the interpreted tier's by construction.")
    w('"""')
    levels = lower(plan, degree_filter, bitmap_on)
    for lp in levels:
        w()
        w()
        _emit_level(w, lp)
    w()
    w()
    w("LEVELS = {")
    for lp in levels:
        w(f"    {lp.level}: level_{lp.level},")
    w("}")
    return "\n".join(w.lines) + "\n"


def _step_desc(lp: LevelProgram, st: SetStep) -> str:
    """Deterministic one-line description of a set step."""

    def nbrs(g: int) -> str:
        return f"N{'in' if lp.gathers[g].inbound else ''}(v{lp.gathers[g].position})"

    if st.src is Src.GATHER:
        base = nbrs(st.arg)
    elif st.src is Src.LOCAL:
        base = f"S{st.arg}"
    else:
        t = lp.tiles[st.arg]
        base = nbrs(t.gather) if t.gather >= 0 else f"S{t.sid}"
    desc = " ".join([base] + [f"{'-' if op.difference else '&'} {nbrs(op.gather)}"
                              for op in st.ops])
    if st.labels is not None:
        desc += f", labels in {list(st.labels)}"
    return f"# S{st.sid} = {desc}"


def _emit_level(w: _Writer, lp: LevelProgram) -> None:
    level = lp.level
    w(f"def level_{level}(ops, warp, stack, slot_arr, win):")
    # stack.match_up_to unrolled: frames 1 .. level-1 always hold slots
    w("fr = stack.frames", 1)
    prefix = ", ".join(f"int(fr[{j}].slot_vertices[fr[{j}].uiter])" for j in range(1, level))
    w(f"m_prefix = [{prefix}]", 1)
    if lp.leaf is Leaf.GATHER_FREE:
        w("if win:", 1)
        w("return ops.leaf_gather_free(warp, stack, win, m_prefix, "
          f"{lp.gathers[0].inbound})", 2)
    elif lp.leaf is Leaf.FLIPPED:
        t = lp.tiles[0]
        w("if win:", 1)
        w("return ops.leaf_flipped(warp, stack, win, m_prefix, "
          f"fr[{t.level}].set_instance({t.sid}), {lp.gathers[0].inbound})", 2)
    w("nslots = int(slot_arr.size)", 1)
    for i, g in enumerate(lp.gathers):
        if g.per_slot:
            w(f"g{i} = ops.gather_slots(slot_arr, {g.inbound}, {g.keyed})", 1)
        else:
            w(f"g{i} = ops.gather_prefix(m_prefix[{g.position}], {g.inbound})", 1)
    for i, t in enumerate(lp.tiles):
        arr = (f"g{t.gather}.vals" if t.gather >= 0
               else f"fr[{t.level}].set_instance({t.sid})")
        w(f"t{i} = ops.tile({arr}, nslots)", 1)
    for st in lp.steps:
        w(_step_desc(lp, st), 1)
        if st.src is Src.GATHER:
            w(f"vals, segs = g{st.arg}.vals, g{st.arg}.segs", 1)
        else:
            w(f"vals, segs = {'t' if st.src is Src.TILE else 's'}{st.arg}", 1)
        for op in st.ops:
            found = (f", ops.bitmap_found(vals, segs, g{op.gather}, slot_arr)"
                     if op.bitmap else "")
            w(f"vals, segs = ops.set_op(warp, vals, segs, g{op.gather}, "
              f"{op.difference}{found})", 1)
        w(f"s{st.sid} = ops.seal(warp, vals, segs, "
          f"{st.sid if st.labels is not None else None}, nslots, {not st.ops})", 1)
    w(f"# candidates for position {level}: S{lp.cand_sid}, fused filter", 1)
    consts = f"{lp.floor_positions!r}, {lp.uses_slot}, {lp.label}, {lp.degree_need}"
    if lp.cand_level == level:
        cand = f"s{lp.cand_sid}"
    else:
        w(f"ca = fr[{lp.cand_level}].set_instance({lp.cand_sid})", 1)
        if lp.leaf is Leaf.TALLY:
            w("if win:", 1)
            w(f"return ops.leaf_tally(warp, stack, win, m_prefix, ca, {consts})", 2)
        cand = "ops.tile(ca, nslots)"
    sets = ", ".join(f"{st.sid}: s{st.sid}" for st in lp.steps)
    w(f"return ops.finish(warp, {level}, slot_arr, m_prefix, {cand}, {consts}, "
      f"win is not None, {{{sets}}})", 1)
