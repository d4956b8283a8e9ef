"""Command line contract: exit codes, output shapes, determinism."""

import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

from vfcoho.reports import dumps, strip_timing

CLI = [sys.executable, "-m", "vfcoho.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env)


def test_verify_passes_on_a_small_suite():
    out = run_cli("verify", "crossed-hom", "--dim", "1")
    assert out.returncode == 0
    assert "all passed" in out.stdout


def test_verify_unknown_suite_is_a_usage_error():
    assert run_cli("verify", "bogus").returncode == 2


def test_dimension_must_be_positive():
    assert run_cli("verify", "crossed-hom", "--dim", "0").returncode == 2


@pytest.mark.parametrize("flags, env", [
    (("--max-tuples", "0"), None),
    (("--samples", "-3"), None),
    ((), {"VFCOHO_MAX_TUPLES": "0"}),
    ((), {"VFCOHO_SAMPLES": "-3"}),
], ids=["max-tuples-flag", "samples-flag", "max-tuples-env", "samples-env"])
def test_budgets_below_their_minimum_are_usage_errors(flags, env):
    out = run_cli("verify", "crossed-hom", "--dim", "1", *flags, env_extra=env)
    assert out.returncode == 2
    assert "must be >=" in out.stderr


@pytest.mark.parametrize("args, env", [
    (("report", "--suites", "relations", "--dim", "1"), {"VFCOHO_MODEL": "banana"}),
    (("table", "weil", "--dim", "1"), {"VFCOHO_FORMAT": "xml"}),
], ids=["model-env", "format-env"])
def test_environment_values_outside_the_choices_are_usage_errors(args, env):
    out = run_cli(*args, env_extra=env)
    assert out.returncode == 2
    assert "must be one of" in out.stderr
    assert out.stdout == ""


def _schema_validator():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(files("vfcoho").joinpath("report_schema.json").read_text())
    return jsonschema.Draft7Validator(schema)


@pytest.mark.parametrize("args, code", [
    (("verify", "crossed-hom", "--dim", "1", "--format", "json"), 0),
    (("report", "--suites", "crossed-hom", "relations", "--dim", "1"), 0),
    (("report", "--suites", "extensions", "--dim", "1", "--radius", "1",
      "--planted"), 1),
    (("table", "weil", "--dim", "2", "--format", "json"), 0),
    (("table", "paper-dims", "--dim", "2", "--format", "json"), 0),
], ids=["verify", "report", "report-planted", "table-weil", "table-paper-dims"])
def test_documents_validate_against_the_shipped_schema(args, code):
    out = run_cli(*args)
    assert out.returncode == code
    doc = json.loads(out.stdout)
    errors = [e.message for e in _schema_validator().iter_errors(doc)]
    assert errors == []


def test_table_weil_golden_rows():
    out = run_cli("table", "weil", "--dim", "1")
    assert out.returncode == 0
    lines = [ln.split() for ln in out.stdout.strip().splitlines()[1:]]
    assert [(int(q), int(d)) for q, d in lines] == [(0, 1), (3, 1)]


def test_table_vey_with_degree_filter():
    out = run_cli("table", "vey", "--dim", "2", "--degree", "5")
    assert out.returncode == 0
    assert "u1 | c1^2" in out.stdout
    assert "u1 | c2" in out.stdout


def test_table_haefliger(golden):
    out = run_cli("table", "haefliger", "--dim", "2")
    assert out.returncode == 0
    for degree, dim in golden["haefliger"]["2"].items():
        assert f"H^{degree}(V_T)" in out.stdout
        assert str(dim) in out.stdout


def test_table_range_guard():
    out = run_cli("table", "weil", "--dim", "6")
    assert out.returncode != 0


def test_report_with_no_suites_is_an_empty_document():
    out = run_cli("report", "--suites", "--dim", "2", "--format", "json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["checks"] == []
    assert doc["schema_version"]


def test_json_reports_are_deterministic():
    args = ("verify", "crossed-hom", "--dim", "1", "--format", "json")
    first = strip_timing(json.loads(run_cli(*args).stdout))
    second = strip_timing(json.loads(run_cli(*args).stdout))
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_environment_variables_provide_defaults():
    out = run_cli("verify", "crossed-hom", "--format", "json",
                  env_extra={"VFCOHO_DIM": "1"})
    doc = json.loads(out.stdout)
    assert doc["config"]["dim"] == 1


def test_flag_overrides_environment():
    out = run_cli("verify", "crossed-hom", "--dim", "2", "--format", "json",
                  env_extra={"VFCOHO_DIM": "1"})
    assert json.loads(out.stdout)["config"]["dim"] == 2


def test_out_flag_writes_the_document(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli("verify", "crossed-hom", "--dim", "1", "--format", "json",
                  "--out", str(target))
    assert out.returncode == 0
    doc = json.loads(target.read_text())
    assert "checks" in doc


def test_planted_defect_fails_the_run_with_witness():
    out = run_cli("report", "--suites", "extensions", "--dim", "2",
                  "--planted", "--format", "json")
    assert out.returncode == 1
    doc = json.loads(out.stdout)
    failed = [c for c in doc["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["extension:jacobi:planted-noncocycle"]
    assert all("witness" in c for c in failed)


GOLDEN_REPORT = Path(__file__).parent / "golden" / "report_planted_dim1.json"


def test_planted_report_matches_the_golden_document():
    """Every suite at dim 1, timing and versions removed, byte for byte.

    A change that alters report content on purpose regenerates the file
    with `vfcoho report --planted --dim 1` through `strip_timing`, minus
    the `versions` block.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("VFCOHO_")}
    out = subprocess.run(CLI + ["report", "--planted", "--dim", "1"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1
    doc = strip_timing(json.loads(out.stdout))
    doc.pop("versions")
    assert dumps(doc) == GOLDEN_REPORT.read_text()
