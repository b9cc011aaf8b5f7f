"""Field container format, JSON/CSV emitters, config grammar."""

import json
from dataclasses import fields

import numpy as np
import pytest

from cymlab.config import (_CYM_KEYS, _SEGRE_KEYS, build_cym_config, build_segre_params,
                           config_echo, get_float, get_floats, get_int, get_str,
                           load_config, parse_config, segre_echo)
from cymlab.cym import CymConfig
from cymlab.cwf import (dump_json, dump_jsonl, read_field, stable_hash,
                        write_field, write_profile_csv)
from cymlab.errors import ValidationError

VOL = 4.0 * np.pi ** 2


def test_field_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    for shape in [(16,), (8, 8), (4, 4, 6, 6)]:
        a = rng.standard_normal(shape)
        p = tmp_path / "a.cwf"
        write_field(p, a)
        back = read_field(p)
        assert back.shape == a.shape
        assert np.array_equal(back, a)   # bit-exact


def test_field_write_is_deterministic(tmp_path):
    a = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    write_field(tmp_path / "x.cwf", a)
    write_field(tmp_path / "y.cwf", a)
    assert (tmp_path / "x.cwf").read_bytes() == (tmp_path / "y.cwf").read_bytes()


def test_field_format_validation(tmp_path):
    p = tmp_path / "bad.cwf"
    p.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ValidationError):
        read_field(p)
    good = tmp_path / "short.cwf"
    write_field(good, np.ones((8, 8)))
    data = good.read_bytes()
    good.write_bytes(data[:-8])          # truncated payload
    with pytest.raises(ValidationError):
        read_field(good)


def test_json_outputs_are_canonical(tmp_path):
    obj = {"b": 2, "a": [1.5, {"z": True, "y": None}]}
    dump_json(tmp_path / "one.json", obj)
    dump_json(tmp_path / "two.json", {"a": [1.5, {"y": None, "z": True}], "b": 2})
    b1 = (tmp_path / "one.json").read_bytes()
    assert b1 == (tmp_path / "two.json").read_bytes()
    assert b1.endswith(b"\n")
    assert json.loads(b1) == obj


def test_jsonl_rows(tmp_path):
    rows = [{"alpha": 0.0, "k": 1}, {"alpha": 0.5, "k": 2}]
    p = tmp_path / "r.jsonl"
    dump_jsonl(p, rows)
    lines = p.read_text().splitlines()
    assert len(lines) == 2
    assert [json.loads(l) for l in lines] == rows


def test_profile_csv_round_trips_doubles(tmp_path):
    x = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0])
    s = np.array([1.234567890123456789, np.pi, 1e-17])
    p = tmp_path / "profile.csv"
    write_profile_csv(p, {"x": x, "S": s})
    lines = p.read_text().splitlines()
    assert lines[0] == "x,S"
    got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(got[:, 0], x)
    assert np.array_equal(got[:, 1], s)  # %.17g preserves doubles exactly


def test_stable_hash():
    assert stable_hash("a", 1) == stable_hash("a", 1)
    assert stable_hash("a", 1) != stable_hash("a", 2)
    assert len(stable_hash("x")) == 16


# -- config grammar -----------------------------------------------------------


def test_parse_config_grammar():
    cfg = parse_config("""
# comment line
tau = 2.0
alphas = 0.0, 0.5, 1.0   # trailing comment
section = theta
""")
    assert cfg["tau"] == "2.0"
    assert get_float(cfg, "tau") == 2.0
    assert get_floats(cfg, "alphas") == [0.0, 0.5, 1.0]
    assert get_str(cfg, "section") == "theta"
    assert get_int(cfg, "missing", 7) == 7
    with pytest.raises(ValidationError):
        get_float(cfg, "missing")        # required key with no default


def test_parse_config_rejects_malformed():
    with pytest.raises(ValidationError):
        parse_config("tau 2.0")
    with pytest.raises(ValidationError):
        parse_config("tau = 1\ntau = 2")


def test_load_config_records_directory(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("tau = 2.0\n")
    cfg = load_config(p)
    assert cfg["_dir"] == str(tmp_path)


def test_build_cym_config_defaults_and_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(f"tau = 2.0\nd = 1\nvol = {VOL!r}\n")
    cym = build_cym_config(load_config(p))
    assert cym.alpha == 0.0 and cym.n == 32
    assert cym.lattice.tau_lat == 1j
    cym2 = build_cym_config(load_config(p), n_override=16, tol_override=1e-8)
    assert cym2.n == 16 and cym2.tol.newton == 1e-8


def test_build_cym_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(f"tau = 2.0\nd = 1\nvol = {VOL!r}\nbogus = 3\n")
    with pytest.raises(ValidationError):
        build_cym_config(load_config(p))


def test_build_cym_config_eta_file(tmp_path):
    n = 16
    g_shape = (n, n)
    eta = 1.0 + 0.25 * np.cos(2 * np.pi * np.arange(n) / n)[:, None] * np.ones(g_shape)
    write_field(tmp_path / "eta.cwf", eta)
    p = tmp_path / "run.cfg"
    p.write_text(f"tau = 2.0\nd = 1\nvol = {VOL!r}\nn = 16\neta_file = eta.cwf\n")
    cym = build_cym_config(load_config(p))
    assert cym.f_eta is not None
    assert cym.f_eta.values.shape == g_shape
    # wrong shape is rejected
    write_field(tmp_path / "eta.cwf", np.ones((8, 8)))
    with pytest.raises(ValidationError):
        build_cym_config(load_config(p))


def test_config_echo_is_serializable(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(f"tau = 2.0\nd = 1\nvol = {VOL!r}\n")
    cfg = load_config(p)
    echo = config_echo(cfg, build_cym_config(cfg), {"extra": 1})
    s = json.dumps(echo, sort_keys=True)
    assert "tau" in json.loads(s)


def test_build_segre_params_defaults():
    params = build_segre_params({})
    assert params["r"] == 2 and params["epsilon"] == 0.05
    assert params["n"] == 16 and params["vol"] == 2.0
    assert params["lat2"] == 0.3 + 0.9j
    assert params["kl_const"] == 16.0
    with pytest.raises(ValidationError):
        build_segre_params({"bogus": "1"})


def _through_json(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


def test_config_echo_rebuilds_cym_config(tmp_path):
    # a config that sets every key; the n and tol overrides must land in the echo
    n = 16
    x = np.arange(n) / n
    write_field(tmp_path / "eta.cwf", 1.0 + 0.2 * np.cos(2 * np.pi * x)[:, None]
                * np.sin(2 * np.pi * x)[None, :])
    p = tmp_path / "run.cfg"
    p.write_text(f"tau = 2.5\nalpha = 0.7\nd = 2\nvol = {VOL!r}\nn = 8\n"
                 "tau_lat_re = 0.21\ntau_lat_im = 1.13\neta_file = eta.cwf\n"
                 "tol_newton = 1e-9\ntol_ineq = 1e-7\ntol_mean = 1e-11\n"
                 "section = constant\ns0 = 0.8\nseed = 5\nalphas = 0.0, 0.5\nh1_amp = 0.1\n")
    cfg = load_config(p)
    assert set(cfg) == _CYM_KEYS
    cym = build_cym_config(cfg, n_override=n, tol_override=1e-11)
    echo = _through_json(config_echo(cfg, cym))
    assert echo["tol_mean"] == 1e-11
    back = build_cym_config({**echo, "_dir": cfg["_dir"]})
    for f in fields(CymConfig):
        a, b = getattr(cym, f.name), getattr(back, f.name)
        if f.name == "f_eta":
            assert a.grid == b.grid and np.array_equal(a.values, b.values)
        else:
            assert a == b, f.name
    # a config without tol_mean echoes none, so older manifests stay unchanged
    p.write_text(f"tau = 2.0\nd = 1\nvol = {VOL!r}\n")
    cfg = load_config(p)
    assert "tol_mean" not in config_echo(cfg, build_cym_config(cfg))


def test_segre_echo_rebuilds_params():
    cfg = {"r": "3", "epsilon": "0.04", "kl_const": "20", "n": "12", "vol": "2.5",
           "seed": "7", "lat1_re": "0.1", "lat1_im": "1.2", "lat2_re": "-0.2",
           "lat2_im": "0.8", "tol_res": "1e-9", "_dir": "."}
    assert set(cfg) == _SEGRE_KEYS
    params = build_segre_params(cfg, n_override=16, seed_override=3, tol_override=1e-11)
    assert build_segre_params(_through_json(segre_echo(params))) == params
