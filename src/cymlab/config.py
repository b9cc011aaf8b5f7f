"""Flat key-value run configuration.

Grammar: one ``key = value`` pair per line; blank lines and lines starting
with ``#`` are ignored, and ``#`` preceded by whitespace starts a trailing
comment.  No sections, no nesting, no quoting; values are parsed by the
consumer (floats, ints, comma-separated lists, or paths resolved relative
to the config file).
"""

from __future__ import annotations

import re
from pathlib import Path

from .cym import CymConfig, Tolerances
from .cwf import read_field
from .errors import ValidationError
from .grids import Lattice, ScalarField, TorusGrid


def parse_config(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        s = re.split(r"\s#", s, maxsplit=1)[0].rstrip()
        if "=" not in s:
            raise ValidationError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = s.partition("=")
        key = key.strip()
        val = val.strip()
        if not key or not val:
            raise ValidationError(f"config line {lineno}: empty key or value")
        if key in out:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def load_config(path) -> dict:
    cfg = parse_config(Path(path).read_text())
    cfg["_dir"] = str(Path(path).resolve().parent)
    return cfg


def _get(cfg, key, cast, default):
    if key not in cfg:
        if default is None:
            raise ValidationError(f"config key {key!r} is required")
        return default
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: {exc}") from exc


def get_float(cfg, key, default=None):
    return _get(cfg, key, float, default)


def get_int(cfg, key, default=None):
    return _get(cfg, key, int, default)


def get_str(cfg, key, default=None):
    return _get(cfg, key, str, default)


def get_floats(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ValidationError(f"config key {key!r} is required")
        return default
    try:
        return [float(v) for v in cfg[key].replace(",", " ").split()]
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: {exc}") from exc


_CYM_KEYS = {"tau", "alpha", "d", "vol", "n", "tau_lat_re", "tau_lat_im", "eta_file",
             "tol_newton", "tol_ineq", "tol_mean", "section", "s0", "seed", "alphas",
             "h1_amp", "_dir"}


def build_cym_config(cfg: dict, n_override=None, tol_override=None) -> CymConfig:
    """CymConfig from parsed keys; eta_file is read as a CWF1 field on the grid."""
    unknown = set(cfg) - _CYM_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    tau = get_float(cfg, "tau")
    alpha = get_float(cfg, "alpha", 0.0)
    d = get_int(cfg, "d")
    vol = get_float(cfg, "vol")
    n = int(n_override) if n_override is not None else get_int(cfg, "n", 32)
    lat = Lattice(get_float(cfg, "tau_lat_re", 0.0) + 1j * get_float(cfg, "tau_lat_im", 1.0))
    tol = Tolerances(
        newton=tol_override if tol_override is not None else get_float(cfg, "tol_newton", 1e-10),
        ineq=get_float(cfg, "tol_ineq", 1e-8),
        mean=get_float(cfg, "tol_mean", 0.0) or None,
    )
    f_eta = None
    if "eta_file" in cfg:
        path = Path(cfg.get("_dir", ".")) / cfg["eta_file"]
        vals = read_field(path)
        grid = TorusGrid(n, lat, vol)
        if vals.shape != grid.shape:
            raise ValidationError(f"eta_file shape {vals.shape} does not match grid {grid.shape}")
        f_eta = ScalarField(grid, vals)
    return CymConfig(tau=tau, alpha=alpha, d=d, vol=vol, lattice=lat, n=n,
                     f_eta=f_eta, tol=tol)


def config_echo(cfg: dict, cym: CymConfig, extra: dict | None = None) -> dict:
    """Canonical echo of the effective configuration for the run manifest.

    build_cym_config on the echo rebuilds cym, with eta_file resolved against
    the ``_dir`` key the caller adds.
    """
    echo = {
        "tau": cym.tau, "alpha": cym.alpha, "d": cym.d, "vol": cym.vol,
        "n": cym.n, "tau_lat_re": cym.lattice.tau_lat.real,
        "tau_lat_im": cym.lattice.tau_lat.imag,
        "tol_newton": cym.tol.newton, "tol_ineq": cym.tol.ineq,
        "section": get_str(cfg, "section", "theta"),
        "s0": get_float(cfg, "s0", 1.0),
        "seed": get_int(cfg, "seed", 0),
    }
    if "eta_file" in cfg:
        echo["eta_file"] = cfg["eta_file"]
    if "tol_mean" in cfg:
        echo["tol_mean"] = get_float(cfg, "tol_mean")
    if extra:
        echo.update(extra)
    return echo


_SEGRE_KEYS = {"r", "epsilon", "kl_const", "n", "vol", "seed",
               "lat1_re", "lat1_im", "lat2_re", "lat2_im", "tol_res", "_dir"}


def build_segre_params(cfg: dict, n_override=None, seed_override=None,
                       tol_override=None) -> dict:
    unknown = set(cfg) - _SEGRE_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    r = get_int(cfg, "r", 2)
    params = {
        "r": r,
        "epsilon": get_float(cfg, "epsilon", 0.05),
        "kl_const": get_float(cfg, "kl_const", 8.0 * r),
        "n": int(n_override) if n_override is not None else get_int(cfg, "n", 16),
        "vol": get_float(cfg, "vol", 2.0),
        "seed": int(seed_override) if seed_override is not None else get_int(cfg, "seed", 0),
        "lat1": get_float(cfg, "lat1_re", 0.0) + 1j * get_float(cfg, "lat1_im", 1.0),
        "lat2": get_float(cfg, "lat2_re", 0.3) + 1j * get_float(cfg, "lat2_im", 0.9),
        "tol_res": tol_override if tol_override is not None else get_float(cfg, "tol_res", 1e-10),
    }
    if params["n"] < 8:
        raise ValidationError(f"segre grid needs n >= 8, got {params['n']}")
    return params


def segre_echo(params: dict) -> dict:
    """Manifest echo of build_segre_params output; build_segre_params inverts it."""
    echo = {k: v for k, v in params.items() if k not in ("lat1", "lat2")}
    for k in ("lat1", "lat2"):
        echo[f"{k}_re"], echo[f"{k}_im"] = params[k].real, params[k].imag
    return echo
