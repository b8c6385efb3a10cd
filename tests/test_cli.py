"""Command line contract tests: schemas, determinism, config, exit codes."""

import numpy as np
import pytest

from helmdpg import cli, dispersion, stencil


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out


def data_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return lines[0], lines[1:]


def test_stencil_dump_fem_nine_rows(capsys):
    code, out = run_cli(["stencil-dump", "--method", "fem", "--omega-n", "2.0"], capsys)
    assert code == 0
    header, rows = data_rows(out)
    assert header == "t,s,two_lx,two_ly,re_D,im_D"
    assert len(rows) == 9
    assert all(row.split(",")[:2] == ["1", "1"] for row in rows)
    center = [row for row in rows if row.split(",")[2:4] == ["0", "0"]]
    assert center[0].split(",")[4] == "1.0"


def test_stencil_dump_dpg_row_count(capsys):
    code, out = run_cli(
        ["stencil-dump", "--method", "dpg", "--omega-n", "0.8",
         "--eps-n", "0.01", "--r", "2"], capsys,
    )
    assert code == 0
    _, rows = data_rows(out)
    assert len(rows) == 21 + 13 + 13


def test_stencil_dump_roundtrip_values(capsys):
    """CSV cells parse back to the exact library weights (repr round trip)."""
    code, out = run_cli(
        ["stencil-dump", "--method", "fosls", "--omega-n", "1.5"], capsys
    )
    assert code == 0
    st = stencil.extract_stencils("fosls", 1.5)
    _, rows = data_rows(out)
    for row in rows:
        t, s, lx, ly, re, im = row.split(",")
        w = st.weights[(int(t), int(s))][(int(lx), int(ly))]
        assert complex(float(re), float(im)) == w


def test_byte_identical_reruns(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code = cli.main(
            ["dispersion", "--method", "dpg", "--r", "2", "--eps", "0.001",
             "--omega", "1.0", "--h", "0.7853981633974483",
             "--n-theta", "3", "--output", str(p)]
        )
        assert code == 0
    capsys.readouterr()
    a, b = (p.read_bytes() for p in paths)
    assert a == b
    assert b"# helm-dpg dispersion" in a


def test_dispersion_row_matches_library(capsys):
    h = 0.5
    code, out = run_cli(
        ["dispersion", "--method", "fem", "--omega", "1.0", "--h", str(h)], capsys
    )
    assert code == 0
    header, rows = data_rows(out)
    assert header == "method,r,eps,omega,h,theta,re_wh,im_wh,abs_detF,iters"
    assert len(rows) == 1
    cells = rows[0].split(",")
    assert cells[0] == "fem" and cells[1] == "" and cells[2] == ""
    st = stencil.extract_stencils("fem", 0.5, normalize=False)
    res = dispersion.solve_root(st, 0.0, 0.5)
    assert float(cells[6]) == res.z.real / h
    assert float(cells[7]) == res.z.imag / h
    assert "# rho=" in out and "# eta=" in out


def test_band_schema(capsys):
    code, out = run_cli(
        ["band", "--method", "fem", "--zeta-max", "0.6", "--zeta-step", "0.2"],
        capsys,
    )
    assert code == 0
    header, rows = data_rows(out)
    assert header == "method,omega_h_norm,re,im"
    assert len(rows) == 3
    got = [float(r.split(",")[1]) for r in rows]
    np.testing.assert_allclose(got, [0.2, 0.4, 0.6], rtol=1e-15)


def test_eps_r_sweep_baseline_rows(capsys):
    code, out = run_cli(
        ["eps-r-sweep", "--zeta", "0.5", "--eps", "1", "--r", "2",
         "--n-theta", "3"], capsys,
    )
    assert code == 0
    header, rows = data_rows(out)
    assert header == "method,r,eps,omega_h_norm,rho,eta"
    methods = [r.split(",")[0] for r in rows]
    assert methods == ["dpg", "fem", "fosls"]
    for row in rows[1:]:
        cells = row.split(",")
        assert cells[1] == "" and cells[2] == ""


def test_solve_fosls_empty_optional_cells(capsys):
    code, out = run_cli(
        ["solve", "--method", "fosls", "--n", "4", "--omega", "2.0"], capsys
    )
    assert code == 0
    header, rows = data_rows(out)
    assert header == "method,n,omega,eps,r,exact,e_r,a,ratio,residual_rel"
    cells = rows[0].split(",")
    assert cells[0] == "fosls" and cells[3] == "" and cells[4] == ""
    assert float(cells[9]) <= 1e-10


def test_resonance_sweep_rows(capsys):
    code, out = run_cli(
        ["resonance-sweep", "--omega-start", "3.5", "--omega-stop", "3.6",
         "--omega-step", "0.1", "--eps", "0.01", "--n", "4", "--r", "2"],
        capsys,
    )
    assert code == 0
    header, rows = data_rows(out)
    assert header == "omega,eps,e_r,a,ratio,error"
    assert len(rows) == 2
    assert [r.split(",")[0] for r in rows] == ["3.5", "3.6"]
    assert all(r.endswith(",") for r in rows)  # empty error cell


def test_config_file_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment line\nmethod=fem\nomega-n=0.5\n")
    code, out = run_cli(
        ["stencil-dump", "--config", str(cfgfile), "--omega-n", "0.7"], capsys
    )
    assert code == 0
    assert "# method=fem" in out
    assert "# omega_n=0.7" in out  # flag beats config
    _, rows = data_rows(out)
    assert len(rows) == 9


def test_config_unknown_key_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("omgea_n=0.5\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["stencil-dump", "--config", str(cfgfile)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["stencil-dump", "--method", "spectral"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "args,flag",
    [
        (["resonance-sweep", "--omega-step", "0"], "--omega-step"),
        (["resonance-sweep", "--omega-step", "-0.05"], "--omega-step"),
        (["band", "--zeta-step", "0"], "--zeta-step"),
        (["band", "--zeta-step", "-0.1"], "--zeta-step"),
        (["band", "--zeta-step", "nan"], "--zeta-step"),
        (["eps-r-sweep", "--n-theta", "0"], "--n-theta"),
        (["dispersion", "--n-theta", "-1"], "--n-theta"),
    ],
)
def test_bad_grid_is_usage_error(args, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("eps", ["-1", "nan"])
def test_bad_eps_is_usage_error(eps, capsys):
    # NormalizedParams rejects the value deep inside the command
    with pytest.raises(SystemExit) as exc:
        cli.main(["dispersion", "--eps", eps, "--n-theta", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eps_n must be nonnegative" in captured.err


def test_bad_step_from_config_is_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "band.cfg"
    cfgfile.write_text("zeta_step=0\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["band", "--config", str(cfgfile)])
    assert exc.value.code == 2
    assert "--zeta-step must be positive" in capsys.readouterr().err


def test_numerical_error_exit_1(capsys):
    # the vertex method self-weight vanishes at omega_n = sqrt(6), so
    # normalized extraction must fail cleanly
    code = cli.main(["stencil-dump", "--method", "fem", "--omega-n", str(np.sqrt(6.0))])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""


def test_selftest_passes(capsys):
    code = cli.main(["selftest"])
    captured = capsys.readouterr()
    assert code == 0
    assert "all checks passed" in captured.out
    assert "FAIL" not in captured.out
