"""End-to-end CLI runs: exit codes, manifests, replay verification, determinism."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from cymlab.cwf import read_field, write_field

VOL = 4.0 * np.pi ** 2

SMOKE_CFG = f"""\
tau = 2.0
alpha = 0.0
d = 1
vol = {VOL!r}
n = 16
section = constant
s0 = 1.0
"""

CONT_CFG = f"""\
tau = 2.0
d = 1
vol = {VOL!r}
n = 16
section = theta
alphas = 0.0, 0.8, 1.6
"""

REP_CFG = f"""\
tau = 2.0
alpha = 5.0
d = 1
vol = {VOL!r}
n = 16
section = theta
seed = 4
h1_amp = 0.2
"""


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "cymlab.cli", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_vortex_solve_run(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SMOKE_CFG)
    out = tmp_path / "out"
    r = run_cli("vortex-solve", "--config", cfg, "--out", out)
    assert r.returncode == 0, r.stderr
    m = _manifest(out)
    assert m["command"] == "vortex-solve"
    assert set(m["outputs"]) >= {"psi.cwf", "S0.cwf", "section.json", "profile.csv"}
    assert m["diagnostics"]["residual_sup"] <= 1e-10
    psi = read_field(out / "psi.cwf")
    assert np.max(np.abs(psi + np.log(2.0 - 1.0 / np.pi))) <= 1e-12
    # timings live only in the sidecar
    assert "timings" not in m
    assert "stage_seconds" in json.loads((out / "timings.json").read_text())


def test_cym_continue_run_and_replay(tmp_path):
    cfg = _write(tmp_path, "run.cfg", CONT_CFG)
    out = tmp_path / "cont"
    r = run_cli("cym-continue", "--config", cfg, "--out", out)
    assert r.returncode == 0, r.stderr
    lines = (out / "records.jsonl").read_text().splitlines()
    assert len(lines) == 3
    recs = [json.loads(l) for l in lines]
    assert [rec["alpha"] for rec in recs] == [0.0, 0.8, 1.6]
    for rec in recs:
        assert (out / rec["state_dir"] / "psi.cwf").exists()
        assert rec["diagnostics"]["min_ellipticity"] > 0.0
    v = run_cli("verify", "--run", out)
    assert v.returncode == 0, v.stdout + v.stderr
    assert "reproduced" in v.stdout


def test_represent_ch2_run_and_replay(tmp_path):
    cfg = _write(tmp_path, "run.cfg", REP_CFG)
    out = tmp_path / "rep"
    r = run_cli("represent-ch2", "--config", cfg, "--out", out)
    assert r.returncode == 0, r.stderr
    m = _manifest(out)
    assert m["diagnostics"]["defect_sup"] <= 1e-8
    f2 = read_field(out / "f2.cwf")
    assert np.min(f2) > 0.0
    v = run_cli("verify", "--run", out)
    assert v.returncode == 0, v.stdout + v.stderr


def test_segre_solve_run_and_replay(tmp_path):
    out = tmp_path / "segre"
    r = run_cli("segre-solve", "--out", out, "--n", 16, "--seed", 3)
    assert r.returncode == 0, r.stderr
    m = _manifest(out)
    assert m["diagnostics"]["residual_resolved_sup"] <= 1e-10
    assert m["diagnostics"]["certificate"]["passed"] is True
    v = run_cli("verify", "--run", out)
    assert v.returncode == 0, v.stdout + v.stderr


def test_verify_suite_and_info(tmp_path):
    r = run_cli("verify", "--n", 16)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "14/14" in r.stdout
    i = run_cli("info")
    assert i.returncode == 0
    assert "coordinates" in i.stdout
    assert "exit codes" in i.stdout


def test_exit_code_validation_errors(tmp_path):
    bad = _write(tmp_path, "bad.cfg", SMOKE_CFG + "bogus = 1\n")
    out = tmp_path / "x"
    r = run_cli("vortex-solve", "--config", bad, "--out", out)
    assert r.returncode == 2
    r2 = run_cli("vortex-solve", "--config", tmp_path / "missing.cfg", "--out", out)
    assert r2.returncode == 2
    # alpha = 0 cannot prescribe ch2
    rep0 = _write(tmp_path, "rep0.cfg", REP_CFG.replace("alpha = 5.0", "alpha = 0.0"))
    r3 = run_cli("represent-ch2", "--config", rep0, "--out", out)
    assert r3.returncode == 2


def test_exit_code_nonconvergence(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SMOKE_CFG.replace("constant", "theta"))
    out = tmp_path / "x"
    r = run_cli("vortex-solve", "--config", cfg, "--out", out, "--tol", "1e-30")
    assert r.returncode == 3


def test_single_command_determinism(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SMOKE_CFG)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run_cli("vortex-solve", "--config", cfg, "--out", out).returncode == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name == "timings.json":
            continue
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One stored run of each pipeline, made once; tests copy before they edit."""
    root = tmp_path_factory.mktemp("runs")
    for cmd, text in (("vortex-solve", SMOKE_CFG), ("cym-continue", CONT_CFG),
                      ("represent-ch2", REP_CFG)):
        cfg = _write(root, f"{cmd}.cfg", text)
        assert run_cli(cmd, "--config", cfg, "--out", root / cmd).returncode == 0
    assert run_cli("segre-solve", "--out", root / "segre-solve", "--n", 16,
                   "--seed", 3).returncode == 0
    return root


def _copy(runs, cmd, tmp_path):
    shutil.copytree(runs / cmd, tmp_path / cmd)
    return tmp_path / cmd


def test_verify_compares_booleans(runs, tmp_path):
    out = _copy(runs, "segre-solve", tmp_path)
    m = _manifest(out)
    assert m["diagnostics"]["certificate"]["passed"] is True
    m["diagnostics"]["certificate"]["passed"] = False
    (out / "manifest.json").write_text(json.dumps(m, sort_keys=True, indent=2))
    v = run_cli("verify", "--run", out)
    assert v.returncode == 2, v.stdout + v.stderr
    assert "FAIL  certificate.passed" in v.stdout


@pytest.mark.parametrize("key, value", [("steps_accepted", 7), ("last_alpha", 0.8),
                                        ("note", "stopped before alpha=1.6"),
                                        ("last_residual_sup", 0.5), ("last_newton_iters", 9)])
def test_verify_checks_continue_summary(runs, tmp_path, key, value):
    # the manifest summary is what the bench gate reads; it must match the replay
    out = _copy(runs, "cym-continue", tmp_path)
    m = _manifest(out)
    assert m["diagnostics"][key] != value
    m["diagnostics"][key] = value
    (out / "manifest.json").write_text(json.dumps(m, sort_keys=True, indent=2))
    v = run_cli("verify", "--run", out)
    assert v.returncode == 2, v.stdout + v.stderr
    assert f"FAIL  summary: {key}" in v.stdout


@pytest.mark.parametrize("cmd, field", [("vortex-solve", "psi.cwf"),
                                        ("cym-continue", "state_001/psi2.cwf"),
                                        ("represent-ch2", "f2.cwf"),
                                        ("segre-solve", "phi.cwf")])
def test_replay_fails_on_perturbed_field(runs, tmp_path, cmd, field):
    # the stored run replays clean; after a smooth change along the first axis,
    # which no gauge (mean, Nyquist line or invisible mode) absorbs, it must not
    v = run_cli("verify", "--run", runs / cmd)
    assert v.returncode == 0 and "FAIL" not in v.stdout, v.stdout + v.stderr
    out = _copy(runs, cmd, tmp_path)
    v = read_field(out / field)
    n = v.shape[0]
    bump = np.cos(2.0 * np.pi * np.arange(n) / n).reshape((n,) + (1,) * (v.ndim - 1))
    write_field(out / field, v * (1.0 + 1e-3 * bump) if cmd == "represent-ch2"
                else v + 1e-3 * bump)
    r = run_cli("verify", "--run", out)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "FAIL" in r.stdout
