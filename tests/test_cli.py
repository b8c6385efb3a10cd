"""Command line contract tests: schemas, determinism, config, exit codes."""

import inspect
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helmdpg import assembly, cli, dispersion, stencil


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


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RUNS = {
    "dispersion_19": ["dispersion", "--n-theta", "19"],
    "dispersion_exact": ["dispersion", "--eps", "0", "--h", "0.09817477042468103",
                         "--n-theta", "7"],
    "band": ["band", "--zeta-max", "1.5"],
    "stencil_dump_raw": ["stencil-dump", "--raw"],
    "stencil_dump_exact": ["stencil-dump", "--raw", "--eps-n", "0",
                           "--omega-n", "0.09817477042468103"],
    "solve": ["solve"],
    "resonance_sweep": ["resonance-sweep", "--omega-start", "4.3", "--omega-stop", "4.5"],
}


def _cells(line, header):
    """(column, text) pairs of a CSV line; a ``# key=value`` line is one cell."""
    if line.startswith("#"):
        key, _, value = line[1:].strip().partition("=")
        return [(f"# {key}", value)]
    return list(zip(header, line.split(",")))


def golden_changes(got, want):
    """How CSV text ``got`` differs from ``want``: the first differing line,
    the count of differing lines, and per column the largest relative
    change of the numbers in it (inf where one side is not finite)."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    pairs = list(itertools.zip_longest(want_lines, got_lines, fillvalue="<no line>"))
    moved = [i for i, (w, g) in enumerate(pairs) if w != g]
    if not moved:
        return "lines equal; the texts differ in line endings"
    w, g = pairs[moved[0]]
    report = [
        f"{len(moved)} of {len(want_lines)} lines differ; first at line {moved[0] + 1}:",
        f"  want {w}",
        f"  got  {g}",
    ]
    header = next((l.split(",") for l in want_lines if not l.startswith("#")), [])
    worst = {}
    for w, g in zip(want_lines, got_lines):
        for (col, a), (_, b) in zip(_cells(w, header), _cells(g, header)):
            try:
                x, y = float(a), float(b)
            except ValueError:
                continue
            if a != b:
                finite = math.isfinite(x) and math.isfinite(y)
                rel = abs(y - x) / max(abs(x), abs(y)) if finite else math.inf
                worst[col] = max(worst.get(col, 0.0), rel)
    report += [f"  {col}: largest relative change {rel:.2e}" for col, rel in worst.items()]
    return "\n".join(report)


def test_golden_changes_names_line_and_columns():
    want = "# h=0.5\na,b,c\nx,1.0,2.0\nx,3.0,4.0\n"
    got = "# h=0.5\na,b,c\nx,1.0,2.0\nx,3.0000000000003,nan\n"
    report = golden_changes(got, want)
    assert report.splitlines()[:3] == [
        "1 of 4 lines differ; first at line 4:", "  want x,3.0,4.0", "  got  x,3.0000000000003,nan",
    ]
    assert report.splitlines()[3:] == ["  b: largest relative change 1.00e-13", "  c: largest relative change inf"]


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_golden_csv(name, capsys):
    # the CSV of each run is byte for byte the recorded one; a change that
    # moves bits regenerates tests/golden/<name>.csv and says why, from the
    # per-column changes the failure reports
    code, out = run_cli(GOLDEN_RUNS[name], capsys)
    assert code == 0
    want = (GOLDEN / f"{name}.csv").read_bytes()
    assert out.encode() == want, golden_changes(out, want.decode())


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


def test_dispersion_command_does_not_load_assembly():
    # the mesh module loads scipy.sparse, which more than doubles the
    # start-up time of a command that solves no mesh
    script = (
        "import sys; from helmdpg import cli; "
        "code = cli.main(['dispersion', '--method', 'fem', '--n-theta', '3']); "
        "print(code, 'helmdpg.assembly' in sys.modules)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.stdout.splitlines()[-1] == "0 False"


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


def test_solve_reports_fill_and_refinement_on_stderr(capsys):
    code = cli.main(["solve", "--n", "4", "--omega", "2.0", "--r", "2"])
    captured = capsys.readouterr()
    assert code == 0
    rep = assembly.solve_method("dpg", assembly.build_mesh(4), 2.0,
                                assembly.manufactured_solution(2.0), eps=1e-2, r=2)
    line = captured.err.strip()
    assert line.startswith("wall time: ")
    assert line.endswith(f" fill_nnz: {rep.fill_nnz} refinement_steps: {rep.refinement_steps}")
    assert "fill_nnz" not in captured.out and "wall time" not in captured.out
    header, rows = data_rows(captured.out)
    assert header == "method,n,omega,eps,r,exact,e_r,a,ratio,residual_rel"
    assert len(rows) == 1
    # the residual is rounding noise, printed to 2 significant digits
    assert rows[0].split(",")[9] == repr(float(f"{rep.residual_rel:.1e}"))


def test_dispersion_reports_certificate_scale_on_stderr(capsys):
    # abs_detF reads as a certificate only against the scale of |det F| over
    # the starts: about 2e11 on the raw dpg eps 1e-2 stencil at h = 2*pi/8
    h = 2 * np.pi / 8
    st = dispersion._method_stencils("dpg", h, 1e-2 * h, 3)
    code = cli.main(["dispersion", "--eps", "1e-2", "--theta", "0.3"])
    captured = capsys.readouterr()
    assert code == 0
    res = dispersion.solve_root(st, 0.3, h)
    assert captured.err.strip() == (
        f"scale: {res.scale!r} abs_detF/scale: {res.det_abs / res.scale!r} theta: 0.3"
    )
    assert "scale" not in captured.out
    assert float(data_rows(captured.out)[1][0].split(",")[8]) == res.det_abs

    code = cli.main(["dispersion", "--eps", "1e-2", "--n-theta", "7"])
    captured = capsys.readouterr()
    assert code == 0
    sweep = dispersion.theta_sweep(st, 7)
    ratio = sweep.det_abs / sweep.scale
    worst = int(np.argmax(ratio))
    assert sweep.scale.shape == (7,) and np.all(sweep.scale > 1e10)
    assert captured.err.strip() == (
        f"scale: {float(sweep.scale[worst])!r} abs_detF/scale: {float(ratio[worst])!r} "
        f"theta: {float(sweep.thetas[worst])!r}"
    )
    assert "scale" not in captured.out


def test_plane_wave_row_matches_library(capsys):
    code, out = run_cli(["plane-wave", "--n", "16"], capsys)
    assert code == 0
    header, rows = data_rows(out)
    assert header == "method,n,omega,theta,eps,r,metric,e_r,ratio"
    assert len(rows) == 1
    # the subcommand's defaults besides n
    theta, omega, eps, r = np.pi / 8, 6 * np.pi, 1e-6, 3
    cells = rows[0].split(",")
    assert cells[:6] == ["dpg", "16", repr(omega), repr(theta), repr(eps), str(r)]
    rep = assembly.plane_wave_demo("dpg", theta, 16, omega, eps, r)
    assert float(cells[6]) == rep.metric


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


def test_config_boolean_matches_flag(tmp_path, capsys):
    cfgfile = tmp_path / "raw.cfg"
    cfgfile.write_text("method=fem\nraw=yes\n")
    code, from_config = run_cli(["stencil-dump", "--config", str(cfgfile)], capsys)
    assert code == 0
    code, from_flag = run_cli(["stencil-dump", "--method", "fem", "--raw"], capsys)
    assert code == 0
    assert "# raw=True" in from_flag
    assert from_config == from_flag


def test_flag_false_overrides_config_boolean(tmp_path, capsys):
    cfgfile = tmp_path / "raw.cfg"
    cfgfile.write_text("raw=yes\n")
    code, plain = run_cli(["stencil-dump", "--method", "fem"], capsys)
    assert code == 0 and "# raw=False" in plain
    for flag in (["--raw=no"], ["--raw", "no"]):
        code, out = run_cli(["stencil-dump", "--method", "fem", "--config", str(cfgfile), *flag], capsys)
        assert code == 0
        assert out == plain
    cfgfile.write_text("no_baselines=yes\n")
    args = ["eps-r-sweep", "--n-theta", "1", "--r", "2", "--eps", "1"]
    code, plain = run_cli(args, capsys)
    assert code == 0
    code, out = run_cli([*args, "--config", str(cfgfile), "--no-baselines=false"], capsys)
    assert code == 0
    assert out == plain


def test_bad_boolean_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["stencil-dump", "--raw=maybe"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_config_bad_boolean_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "raw.cfg"
    cfgfile.write_text("raw=maybe\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["stencil-dump", "--config", str(cfgfile)])
    assert exc.value.code == 2
    assert "not a boolean" in capsys.readouterr().err


def test_config_unknown_key_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("omgea_n=0.5\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["stencil-dump", "--config", str(cfgfile)])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command,line,message",
    [
        ("solve", "exact=planewave", "'exact' must be one of manufactured, plane-wave, zero"),
        ("stencil-dump", "method=spectral", "'method' must be one of dpg, fem, fosls"),
    ],
)
def test_config_value_outside_choices_is_usage_error(command, line, message, tmp_path, capsys):
    # the same value as a flag is a usage error; from a file it must not
    # run, say, the zero solution under an unknown exact name
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"# comment\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(cfgfile)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{cfgfile}:2: {message}" in captured.err


#: per subcommand, each option whose default the library declares too, with
#: the library function and parameter that declare it
LIBRARY_DEFAULTS = {
    "resonance-sweep": [
        ("omega_step", assembly.default_resonance_grid, "step"),
        ("omega_start", assembly.default_resonance_grid, "start"),
        ("omega_stop", assembly.default_resonance_grid, "stop"),
        ("eps", assembly.resonance_sweep, "eps_values"),
        ("n", assembly.resonance_sweep, "n"),
        ("r", assembly.resonance_sweep, "r"),
    ],
    "plane-wave": [
        (dest, assembly.plane_wave_demo, dest)
        for dest in ("method", "theta", "n", "omega", "eps", "r")
    ],
    "eps-r-sweep": [
        ("zeta", dispersion.epsilon_r_sweep, "zeta"),
        ("eps", dispersion.epsilon_r_sweep, "eps_values"),
        ("r", dispersion.epsilon_r_sweep, "r_values"),
        ("n_theta", dispersion.epsilon_r_sweep, "n_theta"),
    ],
    "band": [(dest, dispersion.band_diagram, dest) for dest in ("theta", "zeta_max", "zeta_step")],
}


@pytest.mark.parametrize("command", LIBRARY_DEFAULTS)
def test_cli_defaults_match_library(command):
    # the parser's defaults are the table's, which repeats the library's
    args, _ = cli._parse([command])
    for dest, fn, param in LIBRARY_DEFAULTS[command]:
        want = inspect.signature(fn).parameters[param].default
        assert getattr(args, dest) == want, (dest, fn.__name__, param)
    if command == "eps-r-sweep":
        include = inspect.signature(fn).parameters["include_baselines"].default
        assert args.no_baselines is (not include)


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
        (["resonance-sweep", "--omega-start", "6", "--omega-stop", "3"], "--omega-stop"),
        (["band", "--zeta-max", "0.01", "--zeta-step", "0.05"], "--zeta-max"),
    ],
)
def test_bad_grid_is_usage_error(args, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
def test_bad_eps_is_usage_error(eps, capsys):
    # NormalizedParams rejects the value deep inside the command
    with pytest.raises(SystemExit) as exc:
        cli.main(["dispersion", "--eps", eps, "--n-theta", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eps_n must be nonnegative" in captured.err


@pytest.mark.parametrize(
    "args,message",
    [
        (["solve", "--omega", "inf"], "omega_n must be positive and finite"),
        (["solve", "--method", "fosls", "--omega", "inf"], "omega_n must be positive and finite"),
        (["solve", "--eps", "inf"], "eps_n must be nonnegative and finite"),
        (["dispersion", "--method", "fem", "--omega", "inf"], "omega_n must be positive and finite"),
        (["band", "--theta", "nan"], "theta must be finite"),
        (["band", "--theta", "inf"], "theta must be finite"),
        (["plane-wave", "--theta", "nan"], "theta must be finite"),
        (["plane-wave", "--theta", "inf"], "theta must be finite"),
        (["solve", "--exact", "plane-wave", "--theta", "nan"], "theta must be finite"),
        (["stencil-dump", "--method", "fem", "--omega-n", "inf"], "omega_n must be positive and finite"),
        (["stencil-dump", "--method", "fem", "--omega-n", "nan"], "omega_n must be positive and finite"),
        (["stencil-dump", "--method", "fem", "--omega-n", "-1"], "omega_n must be positive and finite"),
    ],
)
def test_non_finite_parameter_is_usage_error(args, message, capsys):
    # rejected before any solve, not after a failed factorization or search
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "args,message",
    [
        (["dispersion", "--r", "1", "--n-theta", "1"], "test-space order r=1 < 2"),
        (["band", "--r", "1"], "test-space order r=1 < 2"),
        (["eps-r-sweep", "--r", "1", "--n-theta", "1"], "test-space order r=1 < 2"),
        (["solve", "--n", "0"], "need at least 2 elements per side, got n=0"),
        (["solve", "--n", "1"], "need at least 2 elements per side, got n=1"),
    ],
)
def test_out_of_range_order_or_mesh_is_usage_error(args, message, capsys):
    # r < 2 and n < 2 are parameters out of range, not numerical failures
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


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
