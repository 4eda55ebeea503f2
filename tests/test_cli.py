import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dstk.analysis import StabilityRegion, mcmillan_degree, normal_rank, poles
from dstk.cli import (
    _build_parser, _parse_region, _read_matrix, format_system, parse_system, read_system, run, write_system,
)
from dstk.exceptions import ParseError
from dstk.ops import series
from dstk.system import TimeDomain, eval_tfm, make_system, random_system


def lag_file(tmp_path, name="g.dss"):
    g = make_system([[-1.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous")
    path = tmp_path / name
    write_system(str(path), g)
    return g, str(path)


_HEADER = "dstk-dss v1\ndomain continuous\nn 1\nm 1\np 1\n"
_LAG = _HEADER + "A\n-1\nB\n1\nC\n-1\nD\n0\n"


class TestSystemFile:
    def test_roundtrip_bit_exact(self, rng):
        for _ in range(10):
            n = int(rng.integers(0, 6))
            g = random_system(n, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                              "continuous" if rng.uniform() < 0.5 else "discrete",
                              proper=n < 2 or rng.uniform() < 0.5, rng=rng)
            g2 = parse_system(format_system(g))
            for k in "AEBCD":
                assert np.array_equal(getattr(g, k), getattr(g2, k)), k
            assert g2.domain is g.domain

    def test_static_gain_file(self):
        text = "dstk-dss v1\ndomain discrete\nn 0\nm 1\np 1\nA\nB\nC\nD\n2\n"
        g = parse_system(text)
        assert g.n == 0 and g.D[0, 0] == 2.0

    def test_omitted_e_means_identity(self):
        text = "dstk-dss v1\ndomain continuous\nn 1\nm 1\np 1\nA\n-1\nB\n1\nC\n-1\nD\n0\n"
        g = parse_system(text)
        assert g.is_standard

    def test_corrupted_row_length(self):
        text = "dstk-dss v1\ndomain continuous\nn 1\nm 1\np 1\nA\n-1 3\nB\n1\nC\n-1\nD\n0\n"
        with pytest.raises(ParseError):
            parse_system(text)

    @pytest.mark.parametrize("token", ["1d3", "0x10", "1__0", "nan", "-inf", "1e400"])
    def test_invalid_or_non_finite_entry(self, token):
        # line 8 holds the second row of A
        text = f"dstk-dss v1\ndomain continuous\nn 2\nm 1\np 1\nA\n-1 0\n0 {token}\nB\n1\n1\nC\n1 1\nD\n0\n"
        with pytest.raises(ParseError, match=r"^line 8: matrix A row 2: invalid or non-finite number$"):
            parse_system(text)

    def test_entries_parse_as_float(self):
        tokens = ["1_000", "+3.5", "-0", "2e-3"]
        text = f"dstk-dss v1\ndomain discrete\nn 0\nm 4\np 1\nA\nB\nC\nD\n{' '.join(tokens)}\n"
        D = parse_system(text).D
        assert D.tolist() == [[float(t) for t in tokens]]
        assert np.signbit(D[0, 2])

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_system("dstk-dss v3\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dstk-dss v1\ndomain continuous\nn 1\n", "missing header field 'm'"),
            (_HEADER.replace("n 1\n", ""), "line 3: expected 'n' field, got 'm 1'"),
            (_HEADER.replace("n 1", "n one"), "bad header value: invalid literal for int() with base 10: 'one'"),
            (_HEADER.replace("continuous", "sideways"), "bad header value: 'sideways' is not a valid TimeDomain"),
            (_HEADER + "\nB\n1\n", "line 7: expected matrix block 'A'"),  # the blank line 6 is counted
            (_HEADER + "A\n-1\nB\n", "matrix B: missing row 1"),
            (_LAG + "# end\njunk\n", "line 15: unexpected trailing content 'junk'"),
        ],
        ids=["missing-field", "wrong-field", "bad-dimension", "bad-domain", "expected-block", "missing-row",
             "trailing"],
    )
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_system(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", ["", "\n\n", "# a comment only\n  \n"], ids=["empty", "blank", "comment"])
    def test_empty_system_file(self, text):
        # no content line: no line number to cite, not even the last one
        with pytest.raises(ParseError) as exc:
            parse_system(text)
        assert str(exc.value) == "empty system file"

    def test_unreadable_files(self, tmp_path):
        path = str(tmp_path / "missing.dss")
        for read in (read_system, _read_matrix):
            with pytest.raises(ParseError) as exc:
                read(path)
            assert str(exc.value) == f"cannot read {path}: [Errno 2] No such file or directory: {path!r}"

    @pytest.mark.parametrize(
        "text, message", [("# a comment only\n\n", "empty matrix"), ("1 2\n# c\n3\n", "ragged rows")]
    )
    def test_matrix_file_errors(self, tmp_path, text, message):
        path = tmp_path / "m.mat"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            _read_matrix(str(path))
        assert str(exc.value) == f"{path}: {message}"


class TestRegions:
    @pytest.mark.parametrize("domain", list(TimeDomain))
    def test_named_regions(self, domain):
        assert _parse_region("lhp", domain) == StabilityRegion.left_half_plane()
        assert _parse_region("disk", domain) == StabilityRegion.unit_disk()
        assert _parse_region("half-plane:-0.5", domain) == StabilityRegion.half_plane(-0.5)
        assert _parse_region("disk:2", domain) == StabilityRegion.disk(2.0)

    def test_unknown_region(self, tmp_path, capsys):
        argv = ["decompose", lag_file(tmp_path)[1], "--region", "annulus",
                "--out-good", str(tmp_path / "a"), "--out-bad", str(tmp_path / "b")]
        assert run(argv) == 1
        want = "bad region 'annulus' (use lhp, disk, half-plane:<a>, disk:<r>, stable)"
        assert capsys.readouterr().err == f"error [parse-error]: {want}\n"
        assert not (tmp_path / "a").exists()


class TestCommands:
    def test_info_matches_library(self, tmp_path, capsys):
        g, path = lag_file(tmp_path)
        assert run(["info", path, "--out", "json", "--seed", "11"]) == 0
        report = json.loads(capsys.readouterr().out)
        res = report["results"]
        assert res["normal_rank"] == normal_rank(g)
        assert res["mcmillan_degree"] == mcmillan_degree(g)
        info = poles(g)
        assert [complex(z["re"], z["im"]) for z in res["poles"]["finite"]] == pytest.approx(info.finite)
        assert res["stable"] is True
        assert report["seed"] == 11

    def test_info_improper_normal_rank(self, tmp_path, capsys):
        g = random_system(8, 2, 2, "continuous", proper=False, rng=np.random.default_rng(0))
        assert run(["info", _write(tmp_path, g), "--out", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["normal_rank"] == 2

    def test_eval(self, tmp_path, capsys):
        _, path = lag_file(tmp_path)
        assert run(["eval", path, "--at", "0,0", "--out", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        val = report["results"]["value"][0][0]
        assert complex(val["re"], val["im"]) == pytest.approx(1.0)

    def test_seeded_determinism(self, tmp_path, capsys):
        _, path = lag_file(tmp_path)
        outs = []
        for _ in range(2):
            assert run(["info", path, "--seed", "5", "--out", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_connect_then_info_degree_adds(self, tmp_path, capsys, rng):
        g1 = make_system([[-1.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous")
        g2 = make_system([[-2.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous")
        p1, p2, po = (str(tmp_path / f) for f in ("a.dss", "b.dss", "ab.dss"))
        write_system(p1, g1)
        write_system(p2, g2)
        assert run(["connect", "series", p1, p2, "-o", po]) == 0
        capsys.readouterr()
        assert run(["info", po, "--out", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["mcmillan_degree"] == 2

    def test_minreal_roundtrip(self, tmp_path, capsys):
        from dstk.ops import parallel

        g = make_system([[-1.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous")
        gg = parallel(g, g)
        p_in, p_out = str(tmp_path / "gg.dss"), str(tmp_path / "min.dss")
        write_system(p_in, gg)
        assert run(["minreal", p_in, "-o", p_out, "--out", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["order_in"] == 2 and report["results"]["order_out"] == 1
        gm = parse_system(open(p_out).read())
        assert abs(eval_tfm(gm, 1.0)[0, 0] - 1.0) < 1e-10

    def test_klf_raw_pencil(self, tmp_path, capsys):
        pm = tmp_path / "m.mat"
        pn = tmp_path / "n.mat"
        pm.write_text("# bidiagonal block\n0 1\n")
        pn.write_text("1 0\n")
        assert run(["klf", str(pm), str(pn), "--out", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["right_indices"] == [1]
        assert report["results"]["normal_rank"] == 1

    def test_nullspace_and_solve_commands(self, tmp_path, capsys):
        from dstk.ops import concat_col, series

        g = make_system([[-1.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous")
        G = concat_col(g, g)
        pg = str(tmp_path / "G.dss")
        write_system(pg, G)
        pb = str(tmp_path / "basis.dss")
        assert run(["nullspace", "left", pg, "-o", pb, "--out", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["basis_shape"] == {"rows": 1, "cols": 2}
        F = series(g, make_system([[-2.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous"))
        pf, px = str(tmp_path / "F.dss"), str(tmp_path / "X.dss")
        write_system(pf, F)
        assert run(["solve", str(tmp_path / "g.dss") if False else _write(tmp_path, g), pf, "-o", px]) == 0
        capsys.readouterr()
        X = parse_system(open(px).read())
        assert abs(eval_tfm(X, 0.0)[0, 0] - 0.5) < 1e-8

    def test_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.dss"
        bad.write_text("not a system\n")
        assert run(["info", str(bad)]) == 1
        capsys.readouterr()
        # numerical failure: singular pencil cannot even be parsed into a
        # system, so use an unstable h2-ish path: decompose with boundary pole
        integ = make_system([[0.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous")
        p = str(tmp_path / "integ.dss")
        write_system(p, integ)
        assert run(["decompose", p, "--out-good", str(tmp_path / "a"), "--out-bad", str(tmp_path / "b")]) == 2
        capsys.readouterr()
        assert run(["nosuchcommand"]) == 1
        capsys.readouterr()

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        _, path = lag_file(tmp_path)
        monkeypatch.setenv("DSTK_SEED", "42")
        assert run(["info", path, "--out", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 42
        monkeypatch.setenv("DSTK_SEED", "not-an-int")
        assert run(["info", path]) == 1
        capsys.readouterr()

    def test_text_and_json_values_agree(self, tmp_path, capsys):
        _, path = lag_file(tmp_path)
        assert run(["eval", path, "--at", "1,0", "--out", "json"]) == 0
        js = json.loads(capsys.readouterr().out)
        assert run(["eval", path, "--at", "1,0", "--out", "text"]) == 0
        text = capsys.readouterr().out
        want = js["results"]["value"][0][0]["re"]
        assert format(want, ".17g") in text


def _dense(g, lam):
    """``C (A - lam E)^-1 B + D`` by one dense complex solve."""
    return g.C @ np.linalg.solve(g.A - lam * g.E, g.B) + g.D


_POINTS = [0.4 + 1.3j, -0.7 + 0.5j, 1.6 - 2.2j]


def _run_json(argv, capsys):
    assert run(argv + ["--out", "json"]) == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_solve_with_an_unstabilizable_basis(tmp_path, capsys):
    # the kernel block of this G has one input and about 24 unstable poles;
    # solve writes the particular solution and needs no stable basis
    r = np.random.default_rng(48)
    G = random_system(48, 3, 2, "continuous", rng=r)
    F = series(G, random_system(4, 1, 3, "continuous", rng=r))
    pf, px = str(tmp_path / "f.dss"), str(tmp_path / "x.dss")
    write_system(pf, F)
    assert _run_json(["solve", _write(tmp_path, G), pf, "-o", px], capsys)["null_basis_cols"] == 1
    X = read_system(px)
    for lam in _POINTS:
        gv, xv, fv = _dense(G, lam), _dense(X, lam), _dense(F, lam)
        assert np.linalg.norm(gv @ xv - fv) <= 1e-8 * (np.linalg.norm(gv) * np.linalg.norm(xv) + np.linalg.norm(fv))


class TestFactorCommands:
    def test_decompose_parts_add_up(self, tmp_path, capsys):
        g = random_system(8, 2, 3, "continuous", rng=np.random.default_rng(8))
        pg, pb = str(tmp_path / "good.dss"), str(tmp_path / "bad.dss")
        res = _run_json(["decompose", _write(tmp_path, g), "--out-good", pg, "--out-bad", pb], capsys)
        assert res["written"] == [pg, pb]
        good, bad = read_system(pg), read_system(pb)
        assert (res["good_order"], res["bad_order"]) == (good.n, bad.n)
        assert good.n and bad.n and good.n + bad.n == g.n
        assert poles(good).finite and all(z.real < 0 for z in poles(good).finite)
        assert all(z.real > 0 for z in poles(bad).finite)
        for lam in _POINTS:
            np.testing.assert_allclose(_dense(good, lam) + _dense(bad, lam), _dense(g, lam), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_coprime_factors_rebuild_g(self, tmp_path, capsys, side, domain):
        g = random_system(6, 2, 3, domain, rng=np.random.default_rng(6))
        pn, pm = str(tmp_path / "n.dss"), str(tmp_path / "m.dss")
        res = _run_json(["cf", side, _write(tmp_path, g), "--out-n", pn, "--out-m", pm], capsys)
        assert res["side"] == side and res["written"] == [pn, pm]
        N, M = read_system(pn), read_system(pm)
        assert (res["numerator_order"], res["denominator_order"]) == (N.n, M.n)
        for lam in _POINTS:
            Nv, Mv = _dense(N, lam), _dense(M, lam)
            got = np.linalg.solve(Mv.T, Nv.T).T if side == "right" else np.linalg.solve(Mv, Nv)
            np.testing.assert_allclose(got, _dense(g, lam), rtol=1e-8, atol=1e-8)

    def test_inner_outer_factors_rebuild_g(self, tmp_path, capsys):
        g = random_system(6, 2, 3, "continuous", stable=True, rng=np.random.default_rng(6))
        pq, pr = str(tmp_path / "q.dss"), str(tmp_path / "r.dss")
        res = _run_json(["iofac", _write(tmp_path, g), "--out-inner", pq, "--out-outer", pr], capsys)
        assert res["inner_columns"] == 2 and res["written"] == [pq, pr]
        Q, R = read_system(pq), read_system(pr)
        assert (Q.p, Q.m, R.p, R.m) == (3, 3, 2, 2)
        assert (res["inner_order"], res["outer_order"]) == (Q.n, R.n)
        for lam in _POINTS:
            np.testing.assert_allclose(_dense(Q, lam)[:, :2] @ _dense(R, lam), _dense(g, lam), rtol=1e-8, atol=1e-8)
        Qw = _dense(Q, 0.8j)
        np.testing.assert_allclose(Qw.conj().T @ Qw, np.eye(3), atol=1e-8)

    def test_match_reports_the_library_error(self, tmp_path, capsys):
        from dstk.solve import l2_model_match

        G = random_system(8, 2, 4, "continuous", stable=True, rng=np.random.default_rng(20))
        F = random_system(5, 1, 4, "continuous", stable=True, rng=np.random.default_rng(27))
        F = make_system(F.A, F.E, F.B, F.C, np.zeros_like(F.D), "continuous")
        pg, pf, px = str(tmp_path / "G.dss"), str(tmp_path / "F.dss"), str(tmp_path / "X.dss")
        write_system(pg, G)
        write_system(pf, F)
        res = _run_json(["match", pg, pf, "-o", px], capsys)
        assert res["written"] == px
        X, parts = l2_model_match(G, F)
        assert res["error_norm"] == parts.error_norm > 0.0
        Xf = read_system(px)
        assert res["solution_order"] == Xf.n == X.n
        for lam in _POINTS:
            np.testing.assert_allclose(_dense(Xf, lam), _dense(X, lam), rtol=1e-12, atol=1e-12)


    def test_match_text_renders_the_error_norm_exactly(self, tmp_path, capsys):
        from dstk.solve import l2_model_match

        G = random_system(8, 2, 4, "continuous", stable=True, rng=np.random.default_rng(20))
        F = random_system(5, 1, 4, "continuous", stable=True, rng=np.random.default_rng(27))
        F = make_system(F.A, F.E, F.B, F.C, np.zeros_like(F.D), "continuous")
        pg, pf, px = str(tmp_path / "G.dss"), str(tmp_path / "F.dss"), str(tmp_path / "X.dss")
        write_system(pg, G)
        write_system(pf, F)
        assert run(["match", pg, pf, "-o", px]) == 0
        lines = capsys.readouterr().out.splitlines()
        norm = l2_model_match(G, F)[1].error_norm
        assert f"error_norm: {norm:.17g}" in lines and float(f"{norm:.17g}") == norm


def _write(tmp_path, g):
    p = str(tmp_path / "g_in.dss")
    write_system(p, g)
    return p


def _nonfinite_system(tmp_path):
    text = format_system(lag_file(tmp_path)[0]).replace("\nA\n-1\n", "\nA\nnan\n")
    path = tmp_path / "nan.dss"
    path.write_text(text)
    return ["info", str(path)]


def _nonfinite_matrix(tmp_path):
    pm, pn = tmp_path / "m.mat", tmp_path / "n.mat"
    pm.write_text("0 1\n")
    pn.write_text("1 inf\n")
    return ["klf", str(pm), str(pn)]


def _negative_header(tmp_path, key):
    text = format_system(lag_file(tmp_path)[0]).replace(f"\n{key} 1\n", f"\n{key} -1\n")
    path = tmp_path / "neg.dss"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        _nonfinite_system,
        _nonfinite_matrix,
        lambda tmp_path: ["eval", lag_file(tmp_path)[1], "--at", "1,x"],
        lambda tmp_path: ["decompose", lag_file(tmp_path)[1], "--region", "half-plane:abc",
                          "--out-good", str(tmp_path / "a"), "--out-bad", str(tmp_path / "b")],
        lambda tmp_path: ["decompose", lag_file(tmp_path)[1], "--region", "disk:-1",
                          "--out-good", str(tmp_path / "a"), "--out-bad", str(tmp_path / "b")],
        lambda tmp_path: ["eval", lag_file(tmp_path)[1], "--at", "nan,0"],
        lambda tmp_path: ["decompose", lag_file(tmp_path)[1], "--region", "half-plane:nan",
                          "--out-good", str(tmp_path / "a"), "--out-bad", str(tmp_path / "b")],
        lambda tmp_path: ["eval", lag_file(tmp_path)[1], "--at", "1,2,3"],
        lambda tmp_path: ["info", _negative_header(tmp_path, "n")],
        lambda tmp_path: ["info", _negative_header(tmp_path, "m")],
        lambda tmp_path: ["info", _negative_header(tmp_path, "p")],
        lambda tmp_path: ["info", lag_file(tmp_path)[1], "--tol", "nan"],
        lambda tmp_path: ["info", lag_file(tmp_path)[1], "--tol", "inf"],
        lambda tmp_path: ["info", lag_file(tmp_path)[1], "--tol", "-1"],
    ],
    ids=["nan-in-system", "inf-in-matrix", "bad-at", "bad-half-plane", "negative-disk",
         "nan-at", "nan-half-plane", "three-part-at", "negative-n", "negative-m", "negative-p",
         "nan-tol", "inf-tol", "negative-tol"],
)
def test_malformed_input_is_a_parse_error(tmp_path, capsys, argv):
    assert run(argv(tmp_path)) == 1
    assert "error [parse-error]" in capsys.readouterr().err


class TestJsonFailures:
    def test_numerical_failure(self, tmp_path, capsys):
        g = make_system([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], "continuous")
        path = _write(tmp_path, g)
        argv = ["iofac", path, "--out-inner", str(tmp_path / "q"), "--out-outer", str(tmp_path / "r")]
        assert run(argv + ["--out", "json"]) == 2
        out = capsys.readouterr()
        report = json.loads(out.out)
        assert report["command"] == "iofac"
        assert report["error"]["code"] == "unstable-input"
        assert report["error"]["message"]
        assert out.err == ""
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error [unstable-input]")

    def test_singular_pencil_names_its_scale(self, tmp_path, capsys):
        # a regular but badly scaled pencil is refused by make_system's rule,
        # and the report carries the scale that decided it
        path = tmp_path / "scaled.dss"
        path.write_text(_HEADER.replace("n 1", "n 2") + "A\n-1e40 0\n0 -1\nB\n1\n1\nC\n1 1\nD\n0\n")
        assert run(["info", str(path), "--out", "json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"]["code"] == "singular-pencil"
        assert "||A||_1 = 1.000e+40" in report["error"]["message"]
        assert "||E||_1 = 1.000e+00" in report["error"]["message"]

    def test_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.dss"
        bad.write_text("not a system\n")
        assert run(["info", str(bad), "--out", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report == {"command": "info", "error": {"code": "parse-error", "message": report["error"]["message"]}}
        assert "header" in report["error"]["message"]

    def test_negative_dimension(self, tmp_path, capsys):
        assert run(["info", _negative_header(tmp_path, "n"), "--out", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report == {"command": "info", "error": {"code": "parse-error", "message": report["error"]["message"]}}
        assert "negative dimension" in report["error"]["message"]

    @pytest.mark.parametrize(
        "argv, command",
        [(["info", "--out", "json"], "info"), (["info", "--out=json"], "info"), (["bogus", "--out", "json"], None)],
    )
    def test_usage_error(self, capsys, argv, command):
        assert run(argv) == 1
        out = capsys.readouterr()
        report = json.loads(out.out)
        assert report == {"command": command, "error": {"code": "parse-error", "message": report["error"]["message"]}}
        assert report["error"]["message"]
        assert out.err == ""
        assert run(argv[:1]) == 1
        assert capsys.readouterr().err.startswith("usage: dstk")
        assert run(["info", "--out", "json", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: dstk")


def test_cached_parser_matches_fresh_parsers(tmp_path, capsys):
    # the parser is built once per process; a run, a usage error and another
    # run through it report exactly what freshly built parsers report
    g = random_system(6, 2, 2, "continuous", rng=np.random.default_rng(6))
    path = _write(tmp_path, g)
    sequence = [["info", path], ["bogus", "--out", "json"], ["minreal", path, "-o", str(tmp_path / "m.dss")]]

    def outcomes(fresh):
        seen = []
        for argv in sequence:
            if fresh:
                _build_parser.cache_clear()
            seen.append((run(argv), capsys.readouterr().out))
        return seen

    assert outcomes(fresh=False) == outcomes(fresh=True)


class TestOutputFiles:
    def test_unwritable_output_is_reported(self, tmp_path, capsys):
        _, path = lag_file(tmp_path)
        out = str(tmp_path / "no" / "such" / "m.dss")
        message = f"cannot write {out}: [Errno 2] No such file or directory: {out!r}"
        assert run(["minreal", path, "-o", out, "--out", "json"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"command": "minreal", "error": {"code": "parse-error", "message": message}}
        assert captured.err == ""
        assert run(["minreal", path, "-o", out]) == 1
        assert capsys.readouterr().err == f"error [parse-error]: {message}\n"

    def test_one_path_given_twice_is_written_twice(self, tmp_path, capsys):
        g = random_system(8, 2, 3, "continuous", rng=np.random.default_rng(8))
        path = _write(tmp_path, g)
        pg, pb, px = (str(tmp_path / f) for f in ("good.dss", "bad.dss", "x.dss"))
        _run_json(["decompose", path, "--out-good", pg, "--out-bad", pb], capsys)
        assert _run_json(["decompose", path, "--out-good", px, "--out-bad", px], capsys)["written"] == [px, px]
        assert open(px).read() == open(pb).read()  # the second write wins


def test_tolerance_checked_before_any_work(tmp_path, capsys):
    out = str(tmp_path / "m.dss")
    assert run(["minreal", lag_file(tmp_path)[1], "-o", out, "--tol", "-1"]) == 1
    assert capsys.readouterr().err == "error [parse-error]: --tol must be a finite number >= 0, got -1.0\n"
    assert not os.path.exists(out)
    assert run(["minreal", lag_file(tmp_path)[1], "-o", out, "--tol", "0"]) == 0


def test_console_entry_passes_the_exit_code(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    _, good = lag_file(tmp_path)
    bad = tmp_path / "bad.dss"
    bad.write_text("not a system\n")
    integ = _write(tmp_path, make_system([[0.0]], [[1.0]], [[1.0]], [[-1.0]], [[0.0]], "continuous"))
    cases = [
        (["info", good], 0),
        (["info", str(bad)], 1),
        (["decompose", integ, "--out-good", str(tmp_path / "a"), "--out-bad", str(tmp_path / "b")], 2),
    ]
    for argv, code in cases:
        cmd = [sys.executable, "-c", "from dstk.cli import main; main()", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == code, proc.stderr[-2000:]
