"""Advice source handles and the advice/join-point relationship report.

An advice's handle is `<file>:<line>`. When the advice carries a @loc
bridge the handle points into the DSAL source it was generated from;
otherwise it is the advice's actual location. The report is the IDE-marker
analog: an `advises` list keyed by advice handle plus the transposed
`advised_by` list keyed by shadow location, serialized as JSON.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

from .aspects import AdviceDecl
from .diagnostics import CompileError
from .matching import MatchTable


def advice_handle(advice: AdviceDecl) -> str:
    if advice.bridge is not None:
        return f"{advice.bridge.file}:{advice.bridge.line}"
    return f"{advice.loc.path}:{advice.loc.line}"


def advice_module(advice: AdviceDecl) -> str:
    if advice.bridge is not None:
        return advice.bridge.module
    return advice.aspect_name


def build_relationship_map(table: MatchTable) -> dict:
    records = []
    for shadow, entry in table.pairs():
        records.append(
            {
                "advice": advice_handle(entry.advice),
                "module": advice_module(entry.advice),
                "shadow": f"{shadow.kind} {shadow.signature}",
                "at": str(shadow.loc),
                "residue": str(entry.residue),
            }
        )
    advises = sorted(records, key=lambda r: (r["advice"], r["at"], r["shadow"], r["residue"]))
    advised_by = sorted(records, key=lambda r: (r["at"], r["advice"], r["shadow"], r["residue"]))
    return {"advises": advises, "advised_by": advised_by}


def render_relationship_map(rel: dict) -> str:
    """The bytes of `json.dumps(rel, indent=2) + "\\n"` for a map of record lists.

    Each record is a non-empty flat dict of strings. `indent` would select
    json's pure-Python encoder, so the fixed layout is written here and each
    string goes through the C string encoder. Both lists of a built map hold
    the same record objects, so each record is rendered once.
    """
    enc = encode_basestring_ascii
    blocks: dict[int, str] = {}
    sections = []
    for key, records in rel.items():
        if not records:
            sections.append(f"  {enc(key)}: []")
            continue
        items = []
        for r in records:
            block = blocks.get(id(r))
            if block is None:
                fields = ",\n".join([f"      {enc(k)}: {enc(v)}" for k, v in r.items()])
                block = blocks[id(r)] = f"    {{\n{fields}\n    }}"
            items.append(block)
        sections.append(f"  {enc(key)}: [\n" + ",\n".join(items) + "\n  ]")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def emit_relationship_map(table: MatchTable, out_path: str) -> dict:
    """Write the relationship report; regeneration is byte-identical."""
    rel = build_relationship_map(table)
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(render_relationship_map(rel))
    except OSError as e:
        raise CompileError(f"cannot write {out_path}: {e.strerror or e}") from None
    return rel
