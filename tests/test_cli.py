import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import homfinsler
from homfinsler import DomainError, catalog_get, s_curvature, volume_coefficient
from homfinsler import cli
from homfinsler.cli import main
from homfinsler.curvature import _s_rows, unit_directions
from homfinsler.metrics import MetricSpec, phi_family

SOLVABLE_JSON = {
    "dim_g": 2,
    "h_dim": 0,
    "structure": [[0, 1, 1, 1.0]],
    "inner_product": [1.0, 0.0, 0.0, 1.0],
    "v": [0.0, 0.5],
    "metric": {"family": "exponential"},
    "mode": "formal",
}


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestBasicCommands:
    def test_catalog_lists_five_entries(self):
        code, text = run(["catalog"])
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 6  # header + 5 entries
        for name in ("abelian3", "heisenberg3", "heisenberg_central_v",
                     "solvable2", "su2_like"):
            assert name in text

    def test_s_curv_abelian_is_zero(self):
        code, text = run(["s-curv", "--space", "catalog:abelian3",
                          "--metric", "exponential", "--y", "1,1,1"])
        assert code == 0
        rows = text.strip().splitlines()[1:]
        assert len(rows) == 3  # closed_form, generic, via_tensors
        for row in rows:
            assert row.split()[-1] == "0"

    def test_s_curv_singularity_exit_code(self, capsys):
        code, _ = run(["s-curv", "--space", "catalog:solvable2",
                       "--metric", "infinite_series", "--y", "1,0"])
        assert code == 1
        assert "s = 0" in capsys.readouterr().err

    def test_validate_report(self):
        code, text = run(["validate", "--space", "catalog:heisenberg3",
                          "--metric", "exponential"])
        assert code == 0
        for check in ("antisymmetry", "jacobi", "reductivity",
                      "inner_product_invariance", "v_invariance",
                      "shen_positivity"):
            assert check in text

    def test_validate_formal_mode_reports_failure_without_refusing(self):
        code, text = run(["validate", "--space", "catalog:heisenberg3",
                          "--metric", "infinite_series"])
        assert code == 0
        assert "false" in text  # shen_positivity fails but formal mode reports only

    def test_validated_mode_refuses_series(self, capsys):
        code, _ = run(["s-curv", "--space", "catalog:heisenberg3",
                       "--metric", "infinite_series", "--y", "1,1,1",
                       "--mode", "validated"])
        assert code == 3
        assert "positivity" in capsys.readouterr().err

    def test_validate_exit_3_in_validated_mode(self):
        code, _ = run(["validate", "--space", "catalog:heisenberg3",
                       "--metric", "infinite_series", "--mode", "validated"])
        assert code == 3

    def test_env_var_mode_override(self, monkeypatch, capsys):
        monkeypatch.setenv("FINSLER_MODE", "validated")
        code, _ = run(["s-curv", "--space", "catalog:heisenberg3",
                       "--metric", "infinite_series", "--y", "1,1,1"])
        assert code == 3
        # explicit flag beats the environment
        code, _ = run(["s-curv", "--space", "catalog:heisenberg3",
                       "--metric", "infinite_series", "--y", "1,1,1",
                       "--mode", "formal"])
        assert code == 0
        capsys.readouterr()

    def test_bad_env_var_is_config_error(self, monkeypatch, capsys):
        monkeypatch.setenv("FINSLER_MODE", "bogus")
        code, _ = run(["s-curv", "--space", "catalog:abelian3",
                       "--metric", "exponential", "--y", "1,1,1"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: FINSLER_MODE must be one of ('formal', 'validated'), got 'bogus'\n"

    def test_volume_matches_library(self):
        code, text = run(["volume", "--space", "catalog:solvable2",
                          "--metric", "randers", "--form", "bh"])
        assert code == 0
        printed = float(text.strip().splitlines()[1].split()[-1])
        expected = volume_coefficient(phi_family("randers"), 0.5, 2, "bh")
        assert printed == expected

    def test_berwald_both_paths(self):
        code, text = run(["berwald", "--space", "catalog:solvable2",
                          "--metric", "exponential", "--y", "1,0.3"])
        assert code == 0
        assert "E_closed" in text and "E_fd" in text
        assert "max |E_closed - E_fd|" in text

    def test_missing_metric_is_config_error(self, capsys):
        code, _ = run(["s-curv", "--space", "catalog:abelian3", "--y", "1,1,1"])
        assert code == 2
        assert "metric" in capsys.readouterr().err

    def test_unknown_catalog_name(self, capsys):
        code, _ = run(["catalog"])
        assert code == 0
        code, _ = run(["validate", "--space", "catalog:nope",
                       "--metric", "randers"])
        assert code == 2
        assert "available" in capsys.readouterr().err

    def test_bad_y_strings(self, capsys):
        code, _ = run(["s-curv", "--space", "catalog:abelian3",
                       "--metric", "exponential", "--y", "1,zz,3"])
        assert code == 2
        code, _ = run(["s-curv", "--space", "catalog:abelian3",
                       "--metric", "exponential", "--y", "1,2"])
        assert code == 2
        capsys.readouterr()

    def test_underflowing_y_exits_1_without_traceback(self, capsys):
        code, _ = run(["s-curv", "--space", "catalog:heisenberg3", "--metric",
                       "exponential", "--y", "1e-300,1e-300,1e-300"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


    @pytest.mark.parametrize("command", ["s-curv", "berwald"])
    def test_pole_of_phi_exits_1_without_traceback(self, command, capsys):
        code, _ = run([command, "--space", "catalog:heisenberg3", "--metric",
                       "kropina", "--y", "1,1,0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: pole of phi (kropina) at s = 0\n"


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(homfinsler.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, homfinsler, homfinsler.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


class TestSpaceConfig:
    def test_from_dict_fields(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(SOLVABLE_JSON))
        model, v, phi, mode = cli._read_space(str(path))
        assert (model.structure.dim_g, model.h_dim, mode) == (2, 0, "formal")
        assert model.structure.tensor.tolist() == [[[0.0, 0.0], [0.0, 1.0]],
                                                   [[0.0, -1.0], [0.0, 0.0]]]
        assert model.inner_product.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert v.coords.tolist() == [0.0, 0.5] and phi is phi_family("exponential")

    def test_build_matches_catalog(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(SOLVABLE_JSON))
        model, v, phi, _ = cli._read_space(str(path))
        entry = catalog_get("solvable2")
        assert np.allclose(model.frame, entry.model.frame)
        spec = MetricSpec.for_vector(phi, v)
        y = np.array([1.0, 0.3])
        assert s_curvature(model, v, spec, y) \
            == s_curvature(entry.model, entry.v, spec, y)

    def test_file_workflow(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(SOLVABLE_JSON))
        code, text = run(["s-curv", "--space", str(path), "--y", "1,0.3"])
        assert code == 0
        assert "closed_form" in text
        # --metric overrides the file
        code2, text2 = run(["s-curv", "--space", str(path), "--y", "1,0.3",
                            "--metric", "randers"])
        assert code2 == 0
        assert "closed_form" not in text2

    def test_custom_polynomial_metric(self, tmp_path):
        data = dict(SOLVABLE_JSON)
        data["metric"] = {"family": "custom", "phi_coefficients": [1.0, 1.0]}
        path = tmp_path / "space.json"
        path.write_text(json.dumps(data))
        code, text = run(["s-curv", "--space", str(path), "--y", "1,0.3"])
        assert code == 0
        rows = {line.split()[0]: float(line.split()[1])
                for line in text.strip().splitlines()[1:]}
        entry = catalog_get("solvable2")
        spec = MetricSpec.for_vector(phi_family("randers"), entry.v)
        expected = s_curvature(entry.model, entry.v, spec, [1.0, 0.3], path="generic")
        assert rows["generic"] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("mutate,match", [
        (lambda d: d.pop("dim_g"), "missing"),
        (lambda d: d.update(inner_product=[1, 0, 0]), "row-major"),
        (lambda d: d.update(v=[1.0]), "components"),
        (lambda d: d.update(structure=[[0, 1, 1, 1.0], [1, 0, 1, 1.0]]), "conflict"),
        (lambda d: d.update(metric={"family": "warp"}), "unknown"),
        (lambda d: d.update(metric="exponential"), "'metric' must be an object"),
        (lambda d: d.update(metric={"family": ["x"]}), "unknown metric family ['x']"),
        (lambda d: d.update(metric={"family": "custom", "phi_coefficients": {"a": 1}}),
         "polynomial coefficients"),
        (lambda d: d.update(structure=[[0.5, 1, 1, 1.0]]), "0.5 is not an integer"),
        (lambda d: d.update(dim_g=2.5), "2.5 is not an integer"),
        (lambda d: d.update(h_dim=float("inf")), "inf is not an integer"),
    ])
    def test_bad_configs_exit_2(self, tmp_path, capsys, mutate, match):
        data = json.loads(json.dumps(SOLVABLE_JSON))
        mutate(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _ = run(["s-curv", "--space", str(path), "--y", "1,0.3"])
        assert code == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,match", [
        ("v", [float("nan"), 0.0], "v_coords must be finite"),
        ("v", [0.0, float("inf")], "v_coords must be finite"),
        ("inner_product", [1.0, 0.0, 0.0, float("nan")], "inner_product must be finite"),
        ("structure", [[0, 1, 1, float("nan")]], "structure constant (0, 1, 1) must be finite"),
    ])
    @pytest.mark.parametrize("command", ["s-curv", "validate"])
    def test_non_finite_inputs_exit_2(self, tmp_path, capsys, key, value, match, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(SOLVABLE_JSON, **{key: value})))   # NaN, Infinity literals
        extra = ["--y", "1,0.3"] if command == "s-curv" else []
        code, _ = run([command, "--space", str(path), *extra])
        assert code == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("content,extra,message", [
        ([1, 2], [], "space config must be a JSON object"),
        ({"v": None}, [], "space config missing key 'v'"),
        ({"structure": [[0, 1.5, 1, 1.0]]}, [], "malformed space config: 1.5 is not an integer"),
        ({"h_dim": float("inf")}, [], "malformed space config: inf is not an integer"),
        ({"metric": "exponential"}, [],
         "space config 'metric' must be an object, got 'exponential'"),
        ({"metric": {"family": "warp"}}, [], "unknown metric family 'warp'; built-ins: "
         "['exponential', 'infinite_series', 'kropina', 'matsumoto', 'randers']"),
        ({"metric": {"family": "warp"}}, ["--metric", "randers"], "unknown metric family "
         "'warp'; built-ins: ['exponential', 'infinite_series', 'kropina', 'matsumoto', "
         "'randers']"),
        ({"metric": {"family": "custom"}}, [], "custom metric needs 'phi_coefficients'"),
        ({"inner_product": [1, 0, 0]}, [], "inner_product must have 4 row-major entries, got 3"),
        ({"v": [1.0]}, [], "v must have 2 components, got 1"),
        ({"h_dim": 2}, [], "dim_g - h_dim must be positive, got 0"),
        ({"mode": "fast"}, [], "config mode must be one of ('formal', 'validated'), got 'fast'"),
        (b'{"dim_g": 2, "h_dim": 0, "mode": "\xff"}', [], "invalid JSON in {path!r}: 'utf-8' "
         "codec can't decode byte 0xff in position 34: invalid start byte"),
        (b"[" * 100_000 + b"]" * 100_000, [], "invalid JSON in {path!r}: maximum recursion "
         "depth exceeded while decoding a JSON array from a unicode string"),
    ], ids=["not_object", "missing_key", "fractional_index", "infinite_h_dim",
            "metric_not_object", "unknown_family", "unknown_family_with_flag",
            "custom_without_coefficients", "inner_product_length", "v_length", "no_m",
            "config_mode", "not_utf8", "too_deep"])
    def test_refusal_table(self, tmp_path, capsys, content, extra, message):
        # exit 2, no output and exactly one stderr line; a dict overrides keys of
        # SOLVABLE_JSON (None drops one), any other content is the whole file
        path = tmp_path / "bad.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif isinstance(content, dict):
            data = dict(SOLVABLE_JSON, **content)
            path.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))
        else:
            path.write_text(json.dumps(content))
        code, text = run(["s-curv", "--space", str(path), "--y", "1,0.3", *extra])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: " + message.format(path=str(path)) + "\n"

    def test_v_too_long_to_square_is_refused_by_its_length(self, tmp_path, capsys):
        # |v|^2 overflows; the refusal names b, with one stderr line and no warning
        path = tmp_path / "long.json"
        path.write_text(json.dumps(dict(SOLVABLE_JSON, v=[0.0, 1e200])))
        code, text = run(["s-curv", "--space", str(path), "--y", "1,1"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == \
            "error: invariant-vector route requires ||beta|| < 1, got 1e+200\n"

    def test_overflowing_exact_profile_is_not_a_pole(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dict(SOLVABLE_JSON, metric={
            "family": "custom", "phi_coefficients": [1e308, 1e308, 1e308]})))
        code, text = run(["s-curv", "--space", str(path), "--y", "1,3"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == "error: overflow of phi (custom) at s = 0.474342\n"

    def test_unreadable_and_invalid_json(self, tmp_path, capsys):
        code, _ = run(["validate", "--space", str(tmp_path / "missing.json"),
                       "--metric", "randers"])
        assert code == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(["validate", "--space", str(bad), "--metric", "randers"])
        assert code == 2
        for text in (b'{"dim_g": 2, "h_dim": 0, "mode": "\xff"}',     # not UTF-8
                     b"[" * 100_000 + b"]" * 100_000):                  # nested too deep
            bad.write_bytes(text)
            code, _ = run(["validate", "--space", str(bad), "--metric", "randers"])
            assert code == 2
            assert "invalid JSON" in capsys.readouterr().err
        capsys.readouterr()


class TestOutputFormats:
    ARGS = ["s-curv", "--space", "catalog:heisenberg3",
            "--metric", "exponential", "--y", "1,1,1"]

    def test_table_csv_jsonl_agree_exactly(self):
        _, table = run(self.ARGS)
        _, csv_text = run(self.ARGS + ["--format", "csv"])
        _, jsonl = run(self.ARGS + ["--format", "jsonl"])

        table_vals = [float(line.split()[-1]) for line in table.strip().splitlines()[1:]]
        reader = csv.DictReader(io.StringIO(csv_text))
        csv_vals = [float(row["S"]) for row in reader]
        json_vals = [json.loads(line)["S"] for line in jsonl.strip().splitlines()]

        assert table_vals == csv_vals == json_vals  # exact float equality

    def test_csv_shape(self):
        _, csv_text = run(self.ARGS + ["--format", "csv"])
        lines = csv_text.strip().splitlines()
        assert lines[0] == "path,S"
        assert len(lines) == 4


class TestScan:
    ARGS = ["scan", "--space", "catalog:heisenberg3", "--metric", "exponential",
            "--grid", "20", "--seed", "11"]

    def test_deterministic_output(self):
        _, first = run(self.ARGS)
        _, second = run(self.ARGS)
        assert first == second  # byte identical
        assert first.splitlines()[0] == "index,y0,y1,y2,s,S_closed,S_generic,abs_diff"
        assert len(first.strip().splitlines()) == 21

    def test_seed_changes_output(self):
        _, first = run(self.ARGS)
        _, other = run(["scan", "--space", "catalog:heisenberg3",
                        "--metric", "exponential", "--grid", "20", "--seed", "12"])
        assert first != other

    def test_rows_ordered_and_reparse(self):
        _, text = run(self.ARGS)
        reader = csv.DictReader(io.StringIO(text))
        rows = list(reader)
        assert [int(r["index"]) for r in rows] == list(range(20))
        for r in rows:
            assert abs(float(r["abs_diff"])) <= 1e-12 * (1 + abs(float(r["S_generic"])))

    @pytest.mark.parametrize("family", ["exponential", "infinite_series"])
    def test_rows_match_scalar_routes(self, family):
        # each row holds what the two scalar routes give at its direction,
        # or nan where either of them raises
        _, text = run(["scan", "--space", "catalog:solvable2", "--metric", family,
                       "--grid", "200", "--seed", "3"])
        e = catalog_get("solvable2")
        spec = MetricSpec.for_vector(phi_family(family), e.v)
        dirs = unit_directions(2, 200, np.random.default_rng(3))
        for row, y in zip(csv.DictReader(io.StringIO(text)), dirs):
            assert [float(row["y0"]), float(row["y1"])] == y.tolist()
            got = [float(row["S_closed"]), float(row["S_generic"])]
            try:
                expect = [s_curvature(e.model, e.v, spec, y, path=path)
                          for path in ("closed_form", "generic")]
            except DomainError:
                assert np.isnan(got).all()
                continue
            assert got == expect

    def test_csv_matches_csv_writer(self, monkeypatch):
        # the scan CSV is written from a row template; it must match the
        # csv.writer + _fmt output of _emit byte for byte, flagged nan rows,
        # -0.0, subnormals and an overflowing |y| included
        dirs = unit_directions(3, 40, np.random.default_rng(5))
        dirs[3] = [0.6, 0.8, 0.0]          # s = 0: pole of Q (infinite series)
        dirs[5] = [1e300, 1e300, 1e300]    # |y|^2 overflows
        dirs[7] = [-0.0, 1.0, 0.5]
        dirs[9] = [5e-324, 0.7, -0.7]
        monkeypatch.setattr(cli, "unit_directions", lambda n, count, rng: dirs)
        _, text = run(["scan", "--space", "catalog:heisenberg3", "--metric",
                       "infinite_series", "--grid", "40", "--format", "csv"])

        e = catalog_get("heisenberg3")
        spec = MetricSpec.for_vector(phi_family("infinite_series"), e.v)
        closed = _s_rows(e.model, e.v, spec, dirs, "closed_form")
        generic = _s_rows(e.model, e.v, spec, dirs, "generic")
        failed = (closed.flag > 0) | (generic.flag > 0)
        assert failed[3] and failed[5] and failed.sum() == 2
        s_closed = np.where(failed, np.nan, closed.S)
        s_generic = np.where(failed, np.nan, generic.S)
        records = []
        for idx, y in enumerate(dirs.tolist()):
            rec = {"index": idx}
            for comp in range(3):
                rec[f"y{comp}"] = y[comp]
            rec["s"] = float(e.v.c * dirs[idx, -1])
            rec["S_closed"] = float(s_closed[idx])
            rec["S_generic"] = float(s_generic[idx])
            rec["abs_diff"] = float(abs(s_closed[idx] - s_generic[idx]))
            records.append(rec)
        expected = io.StringIO()
        cli._emit(records, "csv", expected)
        assert text == expected.getvalue()
        assert ",nan," in text and ",-0," in text and "4.9406564584124654e-324" in text

    def test_scan_requires_closed_family(self, capsys):
        code, _ = run(["scan", "--space", "catalog:heisenberg3",
                       "--metric", "randers", "--grid", "5"])
        assert code == 2
        capsys.readouterr()

    def test_negative_seed_is_config_error(self, capsys):
        code, text = run(["scan", "--space", "catalog:heisenberg3",
                          "--metric", "exponential", "--grid", "5", "--seed", "-1"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"
