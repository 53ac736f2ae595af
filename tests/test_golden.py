"""Golden-file freezes: the documented report shapes and the grammar are
stable byte-for-byte, and live reports validate against the shipped schema."""

import json
from pathlib import Path

import jsonschema
import pytest

from liequiv.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _run_to_bytes(tmp_path, argv):
    target = tmp_path / "out"
    code = main(argv + ["--out", str(target)])
    return code, target.read_bytes()


@pytest.mark.parametrize("golden,argv,expect_code", [
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
])
def test_reports_match_goldens(tmp_path, golden, argv, expect_code):
    code, got = _run_to_bytes(tmp_path, argv)
    assert code == expect_code
    assert got == (GOLDEN / golden).read_bytes()


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
