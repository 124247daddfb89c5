"""Compiler driver: the dsals.txt registry, DSAL transformation, weaving.

The pipeline is: load the registry, transform DSAL inputs into generated
MiniAspect files (first matching extension wins, pass-through otherwise),
parse everything, validate the DSAL models against the base program, apply
the hide filter, build the match table, and optionally emit the
relationship report. Transformers are built in and selected by name via
dsals.txt (`#` comments and blank lines allowed).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import bridge, dsal_audit, dsal_cool
from . import minilang as ml
from .aspects import AspectDecl, parse_aspect_file
from .diagnostics import CompileError, Loc
from .interp import WovenUnit


@dataclass
class GeneratedRecord:
    """One generated aspect file plus its originating DSAL file."""

    dsal_path: str
    path: str
    validate: object  # callable(Program) -> None


@dataclass
class TransformationDescriptor:
    name: str
    extension: str  # without the dot
    transform: object  # callable(input_path, gen_dir) -> GeneratedRecord


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


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        raise CompileError(f"{path}: file not found") from None


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


def _transform_cool(input_path: str, gen_dir: str) -> GeneratedRecord:
    coord = dsal_cool.parse_cool(_read(input_path), input_path)
    out_path = _gen_path(input_path, "cool", gen_dir)
    _write_generated(out_path, dsal_cool.gen_cool_aspect(coord))
    return GeneratedRecord(
        input_path, out_path, lambda program: dsal_cool.validate_cool(coord, program)
    )


def _make_audit_transform(messages_path: str | None):
    def transform(input_path: str, gen_dir: str) -> GeneratedRecord:
        model = dsal_audit.parse_audit(_read(input_path), input_path)
        catalog_path = messages_path
        if catalog_path is None:
            catalog_path = os.path.join(os.path.dirname(input_path) or ".", "messages.txt")
        catalog = dsal_audit.load_catalog(catalog_path)
        out_path = _gen_path(input_path, "audit", gen_dir)
        _write_generated(out_path, dsal_audit.gen_audit_aspect(model, catalog))
        return GeneratedRecord(
            input_path,
            out_path,
            lambda program: dsal_audit.validate_audit(model, catalog, program),
        )

    return transform


def builtin_catalog(messages_path: str | None = None) -> dict[str, TransformationDescriptor]:
    return {
        "cool": TransformationDescriptor("cool", "cool", _transform_cool),
        "audit": TransformationDescriptor(
            "audit", "audit", _make_audit_transform(messages_path)
        ),
    }


def load_registry(
    path: str | None, messages_path: str | None = None
) -> list[TransformationDescriptor]:
    """Read dsals.txt: one transformation name per non-empty, non-comment
    line, resolved against the built-in catalog. Absent file => empty."""
    if path is None or not os.path.exists(path):
        return []
    catalog = builtin_catalog(messages_path)
    registry: list[TransformationDescriptor] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            name = raw.split("#", 1)[0].strip()
            if not name:
                continue
            desc = catalog.get(name)
            if desc is None:
                raise CompileError(
                    f"unknown transformation {name!r} (line {lineno})", Loc(path, lineno)
                )
            registry.append(desc)
    return registry


def transform_inputs(
    input_paths: list[str], registry: list[TransformationDescriptor], gen_dir: str
) -> tuple[list[str], list[GeneratedRecord]]:
    """Replace DSAL inputs by their generated aspect files, in order; the
    first descriptor whose extension matches wins. Pass-through otherwise."""
    effective: list[str] = []
    generated: list[GeneratedRecord] = []
    for path in input_paths:
        record = None
        for desc in registry:
            if path.endswith("." + desc.extension):
                record = desc.transform(path, gen_dir)
                break
        if record is None:
            effective.append(path)
        else:
            generated.append(record)
            effective.append(record.path)
    return effective, generated


def compile(paths: list[str], options: CompileOptions | None = None) -> CompileArtifacts:
    """Run the whole front half: transform, parse, validate, weave."""
    options = options or CompileOptions()
    if not paths:
        raise CompileError("no input files")
    for path in paths:
        if not os.path.exists(path):
            raise CompileError(f"{path}: file not found")
    registry = load_registry(options.dsals_path, options.messages_path)
    effective, generated = transform_inputs(list(paths), registry, options.gen_dir)
    origin_of = {rec.path: rec.dsal_path for rec in generated}

    classes: list = []
    aspects: list[AspectDecl] = []
    precedence: list[str] = []
    for path in effective:
        if path.endswith(".ml0"):
            program_part = ml.parse_base(_read(path), path)
            classes.extend(program_part.classes)
        elif path.endswith(".ma0"):
            try:
                part = parse_aspect_file(_read(path), path)
            except CompileError as e:
                if path in origin_of:
                    raise CompileError(
                        f"{e.msg} (generated from {origin_of[path]})", e.loc
                    ) from None
                raise
            aspects.extend(part.aspects)
            for name in part.precedence:
                if name not in precedence:
                    precedence.append(name)
        else:
            raise CompileError(f"{path}: unsupported input (no transformation registered)")

    program = ml.Program(classes)
    for rec in generated:
        rec.validate(program)

    unit = WovenUnit.build(
        program,
        aspects,
        precedence,
        strip_hide=options.strip_hide,
        generated_paths=frozenset(origin_of),
    )
    relationships = None
    if options.relationships_path is not None:
        relationships = bridge.emit_relationship_map(
            unit.match_table, options.relationships_path
        )
    return CompileArtifacts(generated, unit, relationships)
