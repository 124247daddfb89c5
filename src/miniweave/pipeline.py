"""Compiler driver: the dsals.txt registry, DSAL transformation, weaving.

The pipeline is: load the registry, transform DSAL inputs into generated
MiniAspect files (first matching extension wins, pass-through otherwise),
parse everything, validate the DSAL models against the base program, apply
the hide filter, build the match table, and optionally emit the
relationship report. A compile error located in a generated file, from
parsing or from weaving, ends in `(generated from <input>)`, naming the
DSAL input that file came from.

The transformers are built in: `TRANSFORMS` maps each name to a function
`(input_path, out_path, messages_path) -> GeneratedRecord`, and a name is
also the input extension it handles (`x.cool` goes to "cool", which writes
`<gen_dir>/x_cool.ma0`). dsals.txt selects and orders them, one name per
line (`#` comments and blank lines allowed).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import bridge, dsal_audit, dsal_cool
from . import minilang as ml
from .aspects import AspectDecl, parse_aspect_file
from .diagnostics import CompileError, Loc, read_source
from .interp import WovenUnit


@dataclass
class GeneratedRecord:
    """One generated aspect file plus its originating DSAL file."""

    dsal_path: str
    path: str
    validate: object  # callable(Program) -> None


@dataclass
class CompileOptions:
    dsals_path: str | None = None
    gen_dir: str = "gen"
    strip_hide: bool = False
    messages_path: str | None = None
    relationships_path: str | None = None


@dataclass
class CompileArtifacts:
    generated: list[GeneratedRecord]
    unit: WovenUnit
    relationships: dict | None = None


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _gen_path(input_path: str, name: str, gen_dir: str) -> str:
    return os.path.join(gen_dir, f"{_stem(input_path)}_{name}.ma0")


def _write_generated(path: str, text: str) -> None:
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise CompileError(f"cannot write {path}: {e.strerror or e}") from None


def _transform_cool(input_path: str, out_path: str, messages_path: str | None) -> GeneratedRecord:
    coord = dsal_cool.parse_cool(read_source(input_path), input_path)
    _write_generated(out_path, dsal_cool.gen_cool_aspect(coord))
    return GeneratedRecord(
        input_path, out_path, lambda program: dsal_cool.validate_cool(coord, program)
    )


def _transform_audit(input_path: str, out_path: str, messages_path: str | None) -> GeneratedRecord:
    model = dsal_audit.parse_audit(read_source(input_path), input_path)
    if messages_path is None:
        messages_path = os.path.join(os.path.dirname(input_path) or ".", "messages.txt")
    catalog = dsal_audit.load_catalog(messages_path)
    _write_generated(out_path, dsal_audit.gen_audit_aspect(model, catalog))
    return GeneratedRecord(
        input_path, out_path, lambda program: dsal_audit.validate_audit(model, catalog, program)
    )


# the built-in transformers by name; a name is also the extension it handles
TRANSFORMS = {"cool": _transform_cool, "audit": _transform_audit}


def load_registry(path: str | None) -> list[str]:
    """Read dsals.txt: one transformation name per non-empty, non-comment
    line, each a key of `TRANSFORMS`. No path => empty; a path that does
    not exist is a compile error."""
    if path is None:
        return []
    registry: list[str] = []
    for lineno, raw in enumerate(read_source(path).split("\n"), start=1):
        name = raw.split("#", 1)[0].strip()
        if not name:
            continue
        if name not in TRANSFORMS:
            raise CompileError(
                f"unknown transformation {name!r} (line {lineno})", Loc(path, lineno)
            )
        registry.append(name)
    return registry


def transform_inputs(
    input_paths: list[str], registry: list[str], gen_dir: str, messages_path: str | None = None
) -> tuple[list[str], list[GeneratedRecord]]:
    """Replace DSAL inputs by their generated aspect files, in order; the
    first registered name that is the input's extension wins. Pass-through
    otherwise. An input whose generated path is a pass-through input, or an
    earlier input already produced, is a compile error, raised before its
    transformer runs, so no input file is overwritten."""
    names = [next((n for n in registry if path.endswith("." + n)), None) for path in input_paths]
    passed = {os.path.abspath(p) for p, name in zip(input_paths, names) if name is None}
    effective: list[str] = []
    generated: list[GeneratedRecord] = []
    made_by: dict[str, str] = {}  # generated path -> the input it came from
    for path, name in zip(input_paths, names):
        if name is None:
            effective.append(path)
            continue
        out_path = _gen_path(path, name, gen_dir)
        if os.path.abspath(out_path) in passed:
            raise CompileError(f"{path}: generates {out_path}, which is also an input")
        if out_path in made_by:
            raise CompileError(f"{path}: generates {out_path}, as {made_by[out_path]} does")
        made_by[out_path] = path
        generated.append(TRANSFORMS[name](path, out_path, messages_path))
        effective.append(out_path)
    return effective, generated


def compile(paths: list[str], options: CompileOptions | None = None) -> CompileArtifacts:
    """Run the whole front half: transform, parse, validate, weave."""
    options = options or CompileOptions()
    if not paths:
        raise CompileError("no input files")
    for path in paths:
        if not os.path.exists(path):
            raise CompileError(f"{path}: file not found")
    registry = load_registry(options.dsals_path)
    effective, generated = transform_inputs(
        list(paths), registry, options.gen_dir, options.messages_path
    )
    origin_of = {rec.path: rec.dsal_path for rec in generated}

    classes: list = []
    aspects: list[AspectDecl] = []
    precedence: list[str] = []
    try:
        for path in effective:
            if path.endswith(".ml0"):
                classes.extend(ml.parse_base(read_source(path), path).classes)
            elif path.endswith(".ma0"):
                part = parse_aspect_file(read_source(path), path)
                aspects.extend(part.aspects)
                precedence.extend(part.precedence)
            else:
                raise CompileError(f"{path}: unsupported input (no transformation registered)")
        program = ml.Program(classes)
        for rec in generated:
            rec.validate(program)
        unit = WovenUnit.build(program, aspects, precedence, strip_hide=options.strip_hide)
    except CompileError as e:
        # a fault in a generated file is a fault of the DSAL input it came from
        origin = origin_of.get(e.loc.path) if e.loc is not None else None
        if origin is None:
            raise
        raise CompileError(f"{e.msg} (generated from {origin})", e.loc) from None
    relationships = None
    if options.relationships_path is not None:
        relationships = bridge.emit_relationship_map(
            unit.match_table, options.relationships_path
        )
    return CompileArtifacts(generated, unit, relationships)
