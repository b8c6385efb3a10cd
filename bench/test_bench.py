"""The benchmark's own tests: each check fails on a wrong answer, and a short
run of every workload prints every metric named in BENCHMARK.json.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from helmdpg import assembly, dispersion, localforms, stencil  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fem_sweep(zeta=2 * np.pi / 8, n_theta=5):
    st = stencil.extract_stencils("fem", zeta, normalize=False)
    return dispersion.theta_sweep(st, n_theta)


def test_fem_closed_form_matches_and_catches_a_moved_root():
    sweep = _fem_sweep()
    assert checks.check_fem_roots(sweep.zeta, sweep.thetas, sweep.z) == []
    moved = sweep.z.copy()
    moved[2] += 1e-8
    assert len(checks.check_fem_roots(sweep.zeta, sweep.thetas, moved)) == 1


def test_fem_closed_form_above_the_cutoff():
    zeta = 4.0
    st = stencil.extract_stencils("fem", zeta, normalize=False)
    z = dispersion.solve_root(st, 0.0, zeta).z
    assert checks.check_fem_roots(zeta, 0.0, [z]) == []
    assert checks.check_fem_roots(zeta, 0.0, [z.conjugate()])


def test_aliased_direction_fails_the_sweep():
    inp = {"zeta": 2 * np.pi / 8, "n_theta": 5, "rows": (("fem", None, None),)}
    results = workloads.theta_run(inp, workloads.Calls())
    ops, _ = workloads.theta_check(inp, results)
    assert ops == [("fem row", [])]
    st, sweep = results[0][0]
    z = sweep.z.copy()
    z[1] = 2 * np.pi - z[1]
    aliased = dataclasses.replace(sweep, z=z)
    ops, _ = workloads.theta_check(inp, [((st, aliased), None)])
    text = " ".join(ops[0][1])
    assert "reflection symmetry" in text and "closed form" in text


def test_a_raising_call_fails_its_operation():
    inp = {"zeta": -1.0, "n_theta": 5, "rows": (("fem", None, None),)}
    ops, _ = workloads.theta_check(inp, workloads.theta_run(inp, workloads.Calls()))
    assert len(ops) == 1 and ops[0][1]


def test_ansatz_residual_check():
    sweep = _fem_sweep()
    st = stencil.extract_stencils("fem", sweep.zeta, normalize=False)
    assert workloads._ansatz_failures(st, 0.0, complex(sweep.z[0])) == []
    assert workloads._ansatz_failures(st, 0.0, complex(sweep.z[0]) * (1 + 1e-4))


def test_rho_ordering_check():
    assert checks.check_below(0.01, {"a": 0.02, "b": 0.03}, "rho") == []
    assert len(checks.check_below(0.025, {"a": 0.02, "b": 0.03}, "rho")) == 1


def test_element_check_catches_asymmetric_and_indefinite_matrices():
    kit = localforms.element_kit(localforms.NormalizedParams(0.5, 1e-2, 3))
    assert checks.check_hermitian_psd(kit.B, "B") == []
    skew = kit.B.copy()
    skew[0, 1] += 1e-6 * np.max(np.abs(kit.B))
    assert checks.check_hermitian_psd(skew, "B")
    assert checks.check_hermitian_psd(kit.S - 1e-3 * np.max(np.abs(kit.S)) * np.eye(8), "S")


def test_slope_windows():
    x = np.array([1.0, 0.5, 0.25])
    assert checks.check_window(checks.loglog_slope(x, x**3), checks.SLOPE_WINDOWS["fem"], "fem") == []
    assert checks.check_window(checks.loglog_slope(x, x**2), checks.SLOPE_WINDOWS["fem"], "fem")
    assert checks.check_window(2.69, checks.SLOPE_WINDOWS["dpg(eps=0)"], "dpg(eps=0)")


def test_best_approximation_reference():
    omega = 2.0
    rep = assembly.solve_fosls(assembly.build_mesh(8), omega, assembly.manufactured_solution(omega))
    ref = checks.best_approx_reference(8, checks.manufactured_fields(omega))
    assert checks.check_best_approx(rep.a, ref) == []
    assert checks.check_best_approx(rep.a * (1 + 1e-6), ref)
    pw = checks.plane_wave_fields(6 * math.pi, math.pi / 8)
    a = assembly.best_approx_error(assembly.build_mesh(8), assembly.plane_wave(6 * math.pi, math.pi / 8))
    assert checks.check_best_approx(a, checks.best_approx_reference(8, pw)) == []


def test_solve_checks():
    assert checks.check_residual(1e-13) == [] and checks.check_residual(1e-9)
    assert checks.check_ratio(1.0) == [] and checks.check_ratio(1.0 - 1e-6)


def test_resonance_ratio_below_one_fails():
    inp = {"omegas": [3.5, 4.4], "eps": (1.0,), "n": 16, "r": 3}
    results = workloads.resonance_run(inp, workloads.Calls())
    ops, aggregate = workloads.resonance_check(inp, results)
    assert [fails for _, fails in ops] == [[], []] and aggregate == []
    below, near = results[0][0]
    ops, _ = workloads.resonance_check(inp, [([dataclasses.replace(below, ratio=0.99), near], None)])
    assert ops[0][1] and not ops[1][1]
    flat = dataclasses.replace(near, ratio=2.0 * below.ratio)
    _, aggregate = workloads.resonance_check(inp, [([below, flat], None)])
    assert aggregate and "resonance" in aggregate[0]


def test_inputs_depend_on_the_seed_only():
    for wl in workloads.WORKLOADS.values():
        a = wl.inputs(random.Random(7))
        b = wl.inputs(random.Random(7))
        c = wl.inputs(random.Random(8))
        assert a == b and a != c


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "theta-sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
