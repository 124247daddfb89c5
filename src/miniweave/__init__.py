"""miniweave: a DSAL-to-aspect-language transformation toolchain.

Domain-specific aspect languages (a COOL-style coordination language and a
case-based audit language) are compiled by source transformation into
MiniAspect, a small general-purpose aspect language extended with @hideX,
@order, and @loc metadata. The weaver honors that metadata, so the
transformation stays semantics-preserving in the presence of other aspects,
and a deterministic concurrent interpreter runs the woven result.
"""

from .diagnostics import CompileError, Loc, MiniRuntimeError, ParseError
from .minilang import Program, parse_base
from .aspects import parse_aspect_file
from .joinpoints import (
    HideSpec,
    Shadow,
    ShadowKind,
    ShadowTable,
    apply_hide_filter,
    collect_hide_specs,
    extract_shadows,
    hide_spec_of,
)
from .matching import (
    MatchTable,
    advice_sequence_at,
    build_match_table,
    match,
)
from .interp import DeadlockReport, ExecutionResult, WovenUnit, detect_deadlock, run

__all__ = [
    "CompileError",
    "DeadlockReport",
    "ExecutionResult",
    "HideSpec",
    "Loc",
    "MatchTable",
    "MiniRuntimeError",
    "ParseError",
    "Program",
    "Shadow",
    "ShadowKind",
    "ShadowTable",
    "WovenUnit",
    "advice_sequence_at",
    "apply_hide_filter",
    "build_match_table",
    "collect_hide_specs",
    "detect_deadlock",
    "extract_shadows",
    "hide_spec_of",
    "match",
    "parse_aspect_file",
    "parse_base",
    "run",
]
