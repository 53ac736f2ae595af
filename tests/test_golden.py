"""Golden-file freezes: the documented report shapes and the grammar are
stable byte-for-byte, and live reports validate against the shipped schema."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

from liequiv import build_catalog, build_registry, build_system, cli
from liequiv.cli import main
from liequiv.dsl import print_generator

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _run_to_bytes(tmp_path, argv):
    target = tmp_path / "out"
    code = main(argv + ["--out", str(target)])
    return code, target.read_bytes()


GOLDENS = [
    ("verify_dim1_theorem.json",
     ["verify", "--dim", "1", "--gen", "all-theorem", "--format", "json"], 0),
    ("system_dump_dim1.txt",
     ["system-dump", "--dim", "1", "--format", "text"], 0),
    ("list_dim2.txt",
     ["list", "--dim", "2", "--format", "text"], 0),
    ("bracket_dim1.json",
     ["bracket", "--dim", "1", "--table", "--format", "json"], 0),
    # nonzero witnesses, a zero tensorial verdict and the theorem factors
    ("verify_dim2_all.txt",
     ["verify", "--dim", "2", "--gen", "all", "--format", "text"], 1),
    ("verify_dim1_user.json",
     ["verify", "--dim", "1", "--gen", "x1*d/dt", "--format", "json"], 1),
    ("transform_dim1_xscale.txt",
     ["transform", "--dim", "1", "--gen", "x1*d/dx1", "--format", "text"], 0),
    # the largest expressions: canonical term order of the N = 3 witnesses
    ("verify_dim3_all.txt",
     ["verify", "--dim", "3", "--gen", "all", "--format", "text"], 1),
    # the largest structure table, every cell a decomposition over the span
    ("bracket_dim3.txt",
     ["bracket", "--dim", "3"], 0),
    # every split of the catalog at N = 2, on the parametric coordinates
    ("deteq_dim2_all.json",
     ["deteq", "--dim", "2", "--gen", "all", "--format", "json"], 0),
]


@pytest.mark.parametrize("golden,argv,expect_code", GOLDENS)
def test_reports_match_goldens(tmp_path, golden, argv, expect_code):
    code, got = _run_to_bytes(tmp_path, argv)
    assert code == expect_code
    assert got == (GOLDEN / golden).read_bytes()


def test_goldens_from_a_fresh_process_with_another_creation_order(tmp_path):
    # atoms, and the dicts the kernel fills, are made in another order than
    # in this process: ?c1..?c200 first, then the models of dims 3, 2, 1; no
    # insertion order may reach a report byte
    script = """
import json, sys
from liequiv import cli
from liequiv.expr import unknown
constants = [unknown(f"c{i}") for i in range(1, 201)]
for dim in (3, 2, 1):
    cli._system(dim)
    cli._catalog(dim)
for n, argv in enumerate(json.loads(sys.argv[1])):
    cli.main(argv + ["--out", f"{sys.argv[2]}/{n}"])
"""
    argvs = [argv for _, argv, _ in GOLDENS]
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs), str(tmp_path)],
        capture_output=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": "271828",
             "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr.decode()
    for n, (golden, _, _) in enumerate(GOLDENS):
        assert (tmp_path / str(n)).read_bytes() == (GOLDEN / golden).read_bytes(), golden


def test_each_model_is_built_once_per_dimension(tmp_path, monkeypatch):
    # the goldens interleave dims 1-3 and reach each dimension's registry,
    # system and catalog; from cold caches each is built exactly once
    built = Counter()
    for name in ("build_registry", "build_system", "build_catalog"):
        def counting(dim, *rest, name=name, build=getattr(cli, name)):
            built[name, dim] += 1
            return build(dim, *rest)

        monkeypatch.setattr(cli, name, counting)
    for cache in (cli._registry, cli._system, cli._catalog):
        cache.cache_clear()
    for golden, argv, expect_code in GOLDENS:
        assert _run_to_bytes(tmp_path, argv) == (
            expect_code, (GOLDEN / golden).read_bytes()), golden
    assert built == {(name, dim): 1 for dim in (1, 2, 3) for name in
                     ("build_registry", "build_system", "build_catalog")}


def test_no_command_mutates_the_shared_models(tmp_path):
    # every command at a dimension reads the one cached registry, system
    # and catalog; after all the goldens they still equal fresh builds
    for golden, argv, expect_code in GOLDENS:
        assert _run_to_bytes(tmp_path, argv)[0] == expect_code, golden
    for dim in (1, 2, 3):
        reg = build_registry(dim)
        shared = cli._registry(dim)
        assert shared.space == reg.space
        assert shared.by_name == reg.by_name
        assert shared.advance == reg.advance
        assert shared.ansatz == reg.ansatz
        shared, fresh = cli._system(dim), build_system(dim, reg)
        assert shared.equations() == fresh.equations()
        assert shared.dissipation == fresh.dissipation
        assert shared.principal == fresh.principal
        assert shared.parametric == fresh.parametric

        def rows(catalog):
            return [(e.name, e.kind, print_generator(reg, e.spec))
                    for e in catalog]

        assert rows(cli._catalog(dim)) == rows(build_catalog(dim, reg))


def _schema():
    return json.loads((ROOT / "docs" / "report_schema.json").read_text())


@pytest.mark.parametrize("argv", [
    ["verify", "--dim", "2", "--gen", "all", "--format", "json"],
    ["deteq", "--dim", "1", "--gen", "Z1", "--format", "json"],
    ["bracket", "--dim", "2", "--table", "--format", "json"],
    ["transform", "--dim", "1", "--gen", "T", "--format", "json"],
    ["list", "--dim", "3", "--format", "json"],
    ["system-dump", "--dim", "2", "--format", "json"],
])
def test_reports_validate_against_schema(tmp_path, argv):
    target = tmp_path / "report.json"
    main(argv + ["--out", str(target)])
    payload = json.loads(target.read_text(encoding="utf-8"))
    jsonschema.validate(payload, _schema())


def test_grammar_document_is_frozen():
    text = (ROOT / "docs" / "dsl_grammar.ebnf").read_text(encoding="utf-8")
    for token in ('"d/d"', '"**"', '"?"', 'rational', 'direction'):
        assert token in text
