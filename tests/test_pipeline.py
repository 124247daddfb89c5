"""Registry loading, transformation dispatch, and the compile driver."""

import os
import shutil
from dataclasses import dataclass

import pytest

from conftest import DEMO_AUDIT, DEMO_STACK

from miniweave.diagnostics import CompileError, Loc, read_source
from miniweave.pipeline import (
    TRANSFORMS,
    CompileOptions,
    compile as pipeline_compile,
    load_registry,
    transform_inputs,
)


@pytest.fixture
def stack_dir(tmp_path):
    d = tmp_path / "stack"
    shutil.copytree(DEMO_STACK, d)
    return d


@pytest.fixture
def audit_dir(tmp_path):
    d = tmp_path / "audit"
    shutil.copytree(DEMO_AUDIT, d)
    return d


class TestLoadRegistry:
    def test_both_builtins(self, tmp_path):
        p = tmp_path / "dsals.txt"
        p.write_text("cool\naudit\n")
        reg = load_registry(str(p))
        assert reg == ["cool", "audit"]

    def test_absent_file_empty(self, tmp_path):
        missing = str(tmp_path / "nope.txt")
        with pytest.raises(CompileError) as exc:
            load_registry(missing)
        assert (exc.value.msg, exc.value.loc) == (f"{missing}: file not found", None)
        assert load_registry(None) == []

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "dsals.txt"
        p.write_text("# registry\n\naudit  # job logging\n")
        assert load_registry(str(p)) == ["audit"]

    def test_unknown_name_cites_line(self, tmp_path):
        p = tmp_path / "dsals.txt"
        p.write_text("cool\nfrobnicate\n")
        with pytest.raises(CompileError, match=r"unknown transformation 'frobnicate' \(line 2\)"):
            load_registry(str(p))

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "dsals.txt"
        p.write_text("audit\ncool\n")
        assert load_registry(str(p)) == ["audit", "cool"]


class TestTransformInputs:
    def test_replacement_and_passthrough(self, audit_dir, tmp_path):
        gen = tmp_path / "gen"
        registry = list(TRANSFORMS)
        main = str(audit_dir / "jobs.ml0")
        audit = str(audit_dir / "jobs.audit")
        effective, generated = transform_inputs([main, audit], registry, str(gen))
        assert effective[0] == main  # pass-through untouched
        assert effective[1] == os.path.join(str(gen), "jobs_audit.ma0")
        assert [g.dsal_path for g in generated] == [audit]
        # pass-through files are never copied or rewritten
        assert not (gen / "jobs.ml0").exists()

    def test_both_transformers_distinct_stems(self, stack_dir, audit_dir, tmp_path):
        gen = tmp_path / "gen"
        registry = list(TRANSFORMS)
        effective, generated = transform_inputs(
            [str(stack_dir / "stack.cool"), str(audit_dir / "jobs.audit")],
            registry,
            str(gen),
        )
        names = sorted(os.path.basename(p) for p in effective)
        assert names == ["jobs_audit.ma0", "stack_cool.ma0"]

    def test_stateless_identical_bytes(self, stack_dir, tmp_path):
        registry = list(TRANSFORMS)
        g1, g2 = tmp_path / "g1", tmp_path / "g2"
        transform_inputs([str(stack_dir / "stack.cool")], registry, str(g1))
        transform_inputs([str(stack_dir / "stack.cool")], registry, str(g2))
        a = (g1 / "stack_cool.ma0").read_bytes()
        b = (g2 / "stack_cool.ma0").read_bytes()
        assert a == b


def compile_demo(d, names, tmp_path, **kw):
    opts = CompileOptions(
        dsals_path=str(d / "dsals.txt"),
        gen_dir=str(tmp_path / "gen"),
        **kw,
    )
    return pipeline_compile([str(d / n) for n in names], opts)


class TestCompile:
    def test_audit_demo_end_to_end(self, audit_dir, tmp_path):
        art = compile_demo(audit_dir, ["jobs.ml0", "jobs.audit"], tmp_path)
        assert art.unit.match_table.entries
        assert len(art.generated) == 1
        assert art.generated[0].dsal_path.endswith("jobs.audit")
        gen_path = art.generated[0].path
        gens = {"generated" if s.loc.path == gen_path else "base" for s in art.unit.all_shadows}
        assert gens == {"base", "generated"}

    def test_strip_hide_grows_visible_set(self, stack_dir, tmp_path):
        names = ["stack.ml0", "stack.cool", "auditor.ma0"]
        plain = compile_demo(stack_dir, names, tmp_path)
        strip = compile_demo(stack_dir, names, tmp_path, strip_hide=True)
        assert len(strip.unit.visible) >= len(plain.unit.visible)
        assert len(strip.unit.visible) == len(strip.unit.all_shadows)

    def test_strip_hide_leaves_generated_sources_identical(self, stack_dir, tmp_path):
        names = ["stack.ml0", "stack.cool"]
        compile_demo(stack_dir, names, tmp_path)
        first = (tmp_path / "gen" / "stack_cool.ma0").read_bytes()
        compile_demo(stack_dir, names, tmp_path, strip_hide=True)
        second = (tmp_path / "gen" / "stack_cool.ma0").read_bytes()
        assert first == second

    def test_missing_file(self, tmp_path):
        with pytest.raises(CompileError, match="file not found"):
            pipeline_compile(["nosuch.ml0"], CompileOptions())

    def test_empty_inputs(self):
        with pytest.raises(CompileError, match="no input files"):
            pipeline_compile([], CompileOptions())

    def test_unsupported_extension(self, tmp_path):
        p = tmp_path / "x.weird"
        p.write_text("")
        with pytest.raises(CompileError, match="unsupported input"):
            pipeline_compile([str(p)], CompileOptions())

    def test_validation_error_cites_dsal_clause(self, stack_dir, tmp_path):
        (stack_dir / "bad.cool").write_text(
            "coordinator BoundedStack {\n  selfex {shove};\n}\n"
        )
        with pytest.raises(CompileError, match="'shove' does not exist"):
            compile_demo(stack_dir, ["stack.ml0", "bad.cool"], tmp_path)

    def test_unparseable_generated_aspect_cites_both_files(self, audit_dir, tmp_path, monkeypatch):
        # fault-inject the audit transformer so its output is not MiniAspect
        import miniweave.pipeline as pl

        real = pl.dsal_audit.gen_audit_aspect
        monkeypatch.setattr(
            pl.dsal_audit, "gen_audit_aspect", lambda model, catalog: "aspect { oops"
        )
        with pytest.raises(CompileError) as exc:
            compile_demo(audit_dir, ["jobs.ml0", "jobs.audit"], tmp_path)
        msg = str(exc.value)
        assert "jobs_audit.ma0" in msg
        assert "generated from" in msg and "jobs.audit" in msg
        monkeypatch.setattr(pl.dsal_audit, "gen_audit_aspect", real)

    def test_relationships_emitted_when_requested(self, audit_dir, tmp_path):
        out = tmp_path / "rel.json"
        art = compile_demo(
            audit_dir, ["jobs.ml0", "jobs.audit"], tmp_path, relationships_path=str(out)
        )
        assert out.exists()
        assert art.relationships is not None
        assert art.relationships["advises"]

    def test_messages_override(self, audit_dir, tmp_path):
        alt = tmp_path / "alt.txt"
        alt.write_text("\n".join(
            line if not line.startswith("COPY_STARTED") else "COPY_STARTED = COPY GOES NOW"
            for line in (audit_dir / "messages.txt").read_text().splitlines()
        ))
        art = compile_demo(
            audit_dir, ["jobs.ml0", "jobs.audit"], tmp_path, messages_path=str(alt)
        )
        gen_text = (tmp_path / "gen" / "jobs_audit.ma0").read_text()
        assert "COPY GOES NOW" in gen_text

    def test_unknown_single_line_file(self, tmp_path):
        p = tmp_path / "dsals.txt"
        p.write_text("frobnicate")
        with pytest.raises(CompileError, match=r"unknown transformation 'frobnicate' \(line 1\)"):
            load_registry(str(p))


@dataclass(frozen=True)
class _FrozenLoc:
    path: str
    line: int
    col: int = 0


@pytest.mark.parametrize("args", [("a.ml0", 3), ("a.ml0", 3, 7), ("gen/x y.ma0", 1, 0)])
def test_loc_behaves_as_a_frozen_dataclass(args):
    loc, ref = Loc(*args), _FrozenLoc(*args)
    assert repr(loc) == repr(ref).replace("_FrozenLoc(", "Loc(", 1)
    assert hash(loc) == hash(ref)
    assert str(loc) == f"{ref.path}:{ref.line}"
    assert loc == Loc(*args) and not loc != Loc(*args)
    assert loc != Loc(ref.path, ref.line, ref.col + 1)
    assert loc != Loc(ref.path, ref.line + 1, ref.col)
    # equal only to another Loc: not to its fields as a tuple, nor to a lookalike
    assert loc != (ref.path, ref.line, ref.col)
    assert loc != ref
    assert len({loc, Loc(*args)}) == 1


@pytest.mark.parametrize(
    "data, line",
    [
        (b"\xffclass A { }\n", 1),
        (b"a\nb\n\xe2\x82 c\n", 3),
        (b"a\r\nb\r\nc \x80\r\n", 3),
        (b"a\rb\rc\r\xc3(", 4),
    ],
    ids=["first-byte", "lf", "crlf", "cr"],
)
def test_read_source_locates_the_first_bad_byte(tmp_path, data, line):
    path = str(tmp_path / "bad.ml0")
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(CompileError) as exc:
        read_source(path)
    assert str(exc.value) == f"{path}:{line}: not valid UTF-8"


def test_read_source_reads_as_text_mode_does(tmp_path):
    path = str(tmp_path / "ok.ml0")
    with open(path, "wb") as fh:
        fh.write("a\r\nb\rc\n\ufeffd \u00e9\n".encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        assert read_source(path) == fh.read()
    with pytest.raises(CompileError, match="file not found"):
        read_source(str(tmp_path / "missing.ml0"))
