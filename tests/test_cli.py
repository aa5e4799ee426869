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


# sha256 of the stdout of `kdual [--format FORMAT] tdual k-groups --base
# circle-trivial`, the one output that prints the clutching of each pair
KGROUPS_SHA256 = {
    "json": "e50500bf0af3301c7168158a80d06ef1a5fb0e050533856795d37326d947a29f",
    "text": "26038135613bc9972f36d0f0a48c6292411a1146f3b2c0fe3f83d2fbba537c7a",
}


# sha256 of the stdout of `kdual [--format FORMAT] tdual enumerate --base
# BASE`, the duality table of each base
ENUMERATE_SHA256 = {
    ("json", "circle-trivial"): "3c24c92d36040ad8132ed8fde8e3cdb20221558b1b9d4340ee49aaf02c721a17",
    ("json", "point"): "fc26cc78672cc21dc66120e1306cf3a9076ef713bab5a38a2af56ae4eb1d8925",
    ("text", "circle-trivial"): "d619ebab496b6a7be60f99632cbfee65998f69752c9161c31ae831d70b1ab4db",
    ("text", "point"): "e2e92ba3a970d2ce01ebfe0f776e5f5b63695a9d296b57377bdc36210d6c2d36",
}


# sha256 of the stdout of `kdual [--format FORMAT] transform t --power K`, the
# values of T^K on the six basis elements
TRANSFORM_SHA256 = {
    ("json", 1): "8563bcba022a94768bc50ad6b8ea3bcc73500872ed607011073e96b1bd355708",
    ("json", 2): "301ca9ed66108f41939624edc80a99784a2f28f23fdc949991c59f3542b50e59",
    ("json", 3): "bf5490e31e5eea33ee862a57eaaab141efca39c4f907715557e0ef033ca7f64c",
    ("json", 4): "f92c24cb2dec012f584974751c59a6b5c605e1f058160e51e6e54de0417c9d8b",
    ("json", 5): "13275411ed971a1617ffadf4194f8404814628a066f23d9c1ff25330b66a1f7b",
    ("json", 6): "6fb7adad030e3f6d3c70d5d204e2d41f5a47bbabc91082f90cb26c7a89a9fa99",
    ("json", 7): "3b2743f240a6ac971434e99f2bdc7ae6a47637f5141f3b8633ece77eb3bd3a33",
    ("json", 8): "338e59b604dc68d615edebd054b97f8b8afae051be0f24045c78eb4b6006418b",
    ("json", 16): "443515b4c6c2c660c4e56aebb1a8ee5053df2aec0b612a357be810a96dc9c1f9",
    ("text", 1): "1285562de7d0cb20a03bbd1c56782dfd3959dc0e0e3a6dd34dc8dc9d86236f7c",
    ("text", 2): "5e9f703e2cbaaa75f2c3c0ad03f926fb6052a9ad33f986a9ea559ed1e90d4e97",
    ("text", 3): "b2a7377838b2d8d1b455c1ef9273118b4ab72bbe4fc08257f3c1f67922000ac9",
    ("text", 4): "615ce8965c1c0d8fd2dbf74c79442aef3363b6ee2da78d347d91fb8fcefa7946",
    ("text", 5): "ee47bf197c0b91b1b694b890df44b5637b1b9b3fa8f850d49586d6dba6e900b7",
    ("text", 6): "5ee982e22676953572ecc658ef080f363efc37d47d760bae23b2f10ad8e193b4",
    ("text", 7): "b9942463b5a824b9ef746fbfd9a89a16458f337554ba34b4f3024c3b617c26b5",
    ("text", 8): "a8ce6c2c2760f771df3f987bc743a1aea17efcab48e32b1d666305688f5982d5",
    ("text", 16): "e6e628e3069e84fd48f882d456c0fe0089839f017202be17be84442bf6fa4fdb",
}


def test_verify_all_report_bytes_are_pinned(capsys):
    for fmt, digest in REPORT_SHA256.items():
        code, out, _ = run(capsys, "--format", fmt, "verify", "all")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, fmt


def test_tdual_kgroups_bytes_are_pinned(capsys):
    for fmt, digest in KGROUPS_SHA256.items():
        code, out, _ = run(capsys, "--format", fmt, "tdual", "k-groups",
                           "--base", "circle-trivial")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, fmt


def test_tdual_enumerate_bytes_are_pinned(capsys):
    for (fmt, base), digest in ENUMERATE_SHA256.items():
        code, out, _ = run(capsys, "--format", fmt, "tdual", "enumerate", "--base", base)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (fmt, base)


def test_transform_power_bytes_are_pinned(capsys):
    for (fmt, power), digest in TRANSFORM_SHA256.items():
        code, out, _ = run(capsys, "--format", fmt, "transform", "t", "--power", str(power))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (fmt, power)


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
    for name in ("tables.json", "report.schema.json"):
        shutil.copy(golden_path(name), tmp_path / name)
    monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))
    import kdual.paper_rings as pr
    pr._load_tables.cache_clear()
    try:
        code, out, _ = run(capsys, "oracle", "verify", "--torus", "2")
        assert code == 0
    finally:
        monkeypatch.delenv(GOLDEN_DIR_ENV)
        pr._load_tables.cache_clear()


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
    shipped = golden_path("tables.json")

    def golden():
        return json.loads(shipped.read_text())

    # directory -> (the tables.json it holds, None for a missing one; the error)
    cases = {}
    tables = golden()
    tables["1"]["rows"]["L"]["fixed"][1] = [0, 0]
    cases["corrupt"] = (tables, "kk_circle_flip: oracle mismatch on t * sigma*chi")
    cases["missing"] = (None, "missing/tables.json")
    tables = golden()
    del tables["1"]["rows"]["L"]["fixed"]
    cases["no-fixed"] = (tables, "no-fixed/tables.json: row L of dimension 1 has no field 'fixed'")
    tables = golden()
    tables["1"]["rows"]["L"]["forgetful"] = [[[], None]]
    cases["null-coefficient"] = (
        tables, "null-coefficient/tables.json: row L of dimension 1: forgetful term [[], null]")
    tables = golden()
    tables["1"]["rows"]["L"]["fixed"][0] = None
    cases["null-fixed-point"] = (
        tables, "null-fixed-point/tables.json: row L of dimension 1: fixed point null")
    cases["list"] = ([], "list/tables.json does not hold an object keyed by dimension")
    tables = golden()
    tables["2"]["generators"] = "C0"
    cases["generators-string"] = (
        tables, "generators-string/tables.json: dimension 2: field 'generators' is not a list")
    tables = golden()
    tables["x"] = tables.pop("1")
    cases["dimension-x"] = (
        tables, "dimension-x/tables.json: dimension x: the dimension is not an integer")
    tables = golden()
    tables["1"]["rows"]["L"]["forgetful"] = [[[5], 1]]
    cases["index-5"] = (
        tables, "index-5/tables.json: row L of dimension 1: forgetful term [[5], 1] "
                "has an index outside 1..1")
    tables = golden()
    del tables["3"]
    cases["no-dimension-3"] = (
        tables, "no-dimension-3/tables.json: there is no table for dimension 3")
    tables = golden()
    del tables["1"]["rows"]["L"]
    cases["no-row-L"] = (
        tables, 'no-row-L/tables.json: dimension 1 has no row for generator "L"')
    for name, (tables, message) in cases.items():
        directory = tmp_path / name
        directory.mkdir()
        if tables is not None:
            (directory / "tables.json").write_text(json.dumps(tables))
        monkeypatch.setenv(GOLDEN_DIR_ENV, str(directory))
        code, out, err = run(capsys, "verify", "all")
        assert (code, out) == (2, ""), name
        assert err.startswith("error: ") and message in err, (name, err)


def test_out_of_range_arguments_are_usage_errors(capsys):
    for argv, message in (
            (("oracle", "verify", "--torus", "4"), "dimensions 1, 2 and 3"),
            (("transform", "t", "--power", "17"), "between 1 and 16"),
            (("ring", "slice", "--ring", "kk_circle_flip", "--degree", "0",
              "--variant", "eq", "--bound", "0"), "unrecognized arguments: --bound 0")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err, argv
