import hashlib
import json
import shutil

from kdual.cli import main
from kdual.paper_rings import GOLDEN_DIR_ENV, golden_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_eval(capsys):
    code, out, _ = run(capsys, "ring", "eval", "--ring", "kk_circle_flip", "chi^2")
    assert code == 0
    assert out.strip() == "sigma*chi"


def test_ring_eval_zero(capsys):
    code, out, _ = run(capsys, "ring", "eval", "--ring", "kk_point", "0")
    assert code == 0
    assert out.strip() == "0"


def test_ring_eval_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "ring", "eval",
                       "--ring", "kk_point", "sigma^3")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "2*sigma"
    assert data["element"]["terms"] == [{"mono": {"sigma": 1}, "coeff": 2}]


def test_ring_slice(capsys):
    code, out, _ = run(capsys, "ring", "slice", "--ring", "hh_circle_flip",
                       "--degree", "2", "--variant", "eq")
    assert code == 0
    assert "Z/2 x Z/2" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "ring", "eval", "--ring", "kk_point", "sigma +")
    assert code == 2
    assert "parse error" in err


def test_superscript_digit_is_a_parse_error(capsys):
    code, out, err = run(capsys, "ring", "eval", "--ring", "kk_point", "2\u00b2")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ") and "(at position 1)" in err


def test_unknown_generator_exit_code(capsys):
    code, _, err = run(capsys, "ring", "eval", "--ring", "kk_point", "chi")
    assert code == 2


def test_usage_error_exit_code(capsys):
    code = main(["ring", "eval", "--ring", "not_a_ring", "1"])
    capsys.readouterr()
    assert code == 2


def test_oracle_verify(capsys):
    code, out, _ = run(capsys, "oracle", "verify", "--torus", "1")
    assert code == 0
    assert "[pass]" in out and "[fail]" not in out


def test_transform_power(capsys):
    code, out, _ = run(capsys, "transform", "t", "--power", "8")
    assert code == 0
    assert "T^8(1) = 1" in out


def test_cohomology_command(capsys):
    code, out, _ = run(capsys, "cohomology", "z2-group", "--twist", "1", "--degree", "3")
    assert code == 0
    assert out.strip() == "Z/2"
    code, out, _ = run(capsys, "cohomology", "z2-group", "--twist", "0", "--degree", "0")
    assert out.strip() == "Z"
    code, out, _ = run(capsys, "--format", "json", "cohomology", "z2-group",
                       "--twist", "1", "--degree", "3")
    assert json.loads(out)["group"] == {"invariant_factors": [2]}


def test_tdual_enumerate(capsys):
    code, out, _ = run(capsys, "tdual", "enumerate", "--base", "circle-trivial")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_tdual_kgroups(capsys):
    code, out, _ = run(capsys, "tdual", "k-groups", "--base", "circle-trivial")
    assert code == 0
    assert "paper-asserted" in out


def test_verify_suites_pass(capsys):
    for suite in ("tables", "oracle", "transform", "tdual"):
        code, out, _ = run(capsys, "verify", suite)
        assert code == 0, suite
        assert "0 failed" in out


def test_reports_are_byte_identical(capsys):
    _, first, _ = run(capsys, "--format", "json", "verify", "tdual")
    _, second, _ = run(capsys, "--format", "json", "verify", "tdual")
    assert first == second


# sha256 of the stdout of `kdual [--format FORMAT] verify all`; a change to
# these is a change to the report bytes and needs a stated reason
REPORT_SHA256 = {
    "json": "9f7e830f1b4984a672a6e3b2484b7f739eef53c2df0063a107e5dd4916f9163f",
    "text": "45030d9209ea92bf54a75f36fb6c0f48213953f8930ce74bd3571e927d6c2759",
}


def test_verify_all_report_bytes_are_pinned(capsys):
    for fmt, digest in REPORT_SHA256.items():
        code, out, _ = run(capsys, "--format", fmt, "verify", "all")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, fmt


# --- a minimal validator for the shipped report schema ----------------------


def _validate(instance, schema):
    kind = schema.get("type")
    if kind == "object":
        assert isinstance(instance, dict)
        for key in schema.get("required", ()):
            assert key in instance, f"missing {key}"
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                _validate(instance[key], sub)
    elif kind == "array":
        assert isinstance(instance, list)
        for item in instance:
            _validate(item, schema["items"])
    elif kind == "string":
        assert isinstance(instance, str)
        if "enum" in schema:
            assert instance in schema["enum"]
    elif kind == "integer":
        assert isinstance(instance, int)


def test_json_report_validates_against_schema(capsys):
    schema = json.loads(golden_path("report.schema.json").read_text())
    _, out, _ = run(capsys, "--format", "json", "verify", "all")
    _validate(json.loads(out), schema)


def test_golden_dir_override(tmp_path, monkeypatch, capsys):
    for name in ("tables.json", "clutchings.json", "report.schema.json"):
        shutil.copy(golden_path(name), tmp_path / name)
    monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))
    import kdual.paper_rings as pr
    import kdual.tduality as td
    pr._load_tables.cache_clear()
    td.golden_clutchings.cache_clear()
    try:
        code, out, _ = run(capsys, "oracle", "verify", "--torus", "2")
        assert code == 0
    finally:
        monkeypatch.delenv(GOLDEN_DIR_ENV)
        pr._load_tables.cache_clear()
        td.golden_clutchings.cache_clear()


def test_failed_clutching_search_is_a_failing_check(monkeypatch, capsys):
    from kdual import tduality
    from kdual.graded_algebra import EQ
    # no multiplier reproduces this printed entry
    monkeypatch.setitem(tduality.PRINTED_MV_TABLES[(False, 0, 0)], (0, EQ), {"R": 2})
    code, out, err = run(capsys, "verify", "tdual")
    assert (code, err) == (1, "")
    assert ("  [          fail] clutching-search  (search agrees with the recorded clutchings)\n"
            "        expected: True\n"
            "        actual:   no clutching reproduces the table for (False, 0, 0)\n") in out
    # the checks after the search still run
    assert "] theorem-T-circle  (" in out


def test_bad_golden_data_is_an_error_not_a_failed_check(tmp_path, monkeypatch, capsys):
    shipped = {name: golden_path(name) for name in ("tables.json", "clutchings.json")}

    def golden(name):
        return json.loads(shipped[name].read_text())

    # directory -> (replaced golden files, None for a missing one; the error)
    cases = {}
    tables = golden("tables.json")
    tables["1"]["rows"]["L"]["fixed"][1] = [0, 0]
    cases["corrupt"] = ({"tables.json": tables},
                        "kk_circle_flip: oracle mismatch on t * sigma*chi")
    cases["missing"] = ({"tables.json": None}, "missing/tables.json")
    tables = golden("tables.json")
    del tables["1"]["rows"]["L"]["fixed"]
    cases["no-fixed"] = ({"tables.json": tables},
                         "no-fixed/tables.json: row L of dimension 1 has no field 'fixed'")
    clutchings = golden("clutchings.json")
    del clutchings["circle_trivial"][0]
    cases["no-row"] = ({"clutchings.json": clutchings},
                       "no-row/clutchings.json has no row for (False, 0, 0)")
    clutchings = golden("clutchings.json")
    del clutchings["circle_trivial"][0]["multiplier"]
    cases["no-multiplier"] = ({"clutchings.json": clutchings},
                              "no-multiplier/clutchings.json: row 0 has no field 'multiplier'")
    for name, (files, message) in cases.items():
        directory = tmp_path / name
        directory.mkdir()
        for filename, path in shipped.items():
            if filename not in files:
                shutil.copy(path, directory / filename)
            elif files[filename] is not None:
                (directory / filename).write_text(json.dumps(files[filename]))
        monkeypatch.setenv(GOLDEN_DIR_ENV, str(directory))
        code, out, err = run(capsys, "verify", "all")
        assert (code, out) == (2, ""), name
        assert err.startswith("error: ") and message in err, (name, err)


def test_out_of_range_arguments_are_usage_errors(capsys):
    for argv, message in (
            (("oracle", "verify", "--torus", "4"), "dimensions 1, 2 and 3"),
            (("transform", "t", "--power", "17"), "between 1 and 16"),
            (("ring", "slice", "--ring", "kk_circle_flip", "--degree", "0",
              "--variant", "eq", "--bound", "0"), "still grows past exponent bound 0")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err, argv
