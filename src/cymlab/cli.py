"""Command-line entry points.

Subcommands: ``vortex-solve`` (alpha = 0 pipeline), ``cym-continue``
(continuation over an alpha list), ``represent-ch2`` (conformal fiber factor
for a prescribed target), ``segre-solve`` (bi-torus Monge-Ampere pipeline),
``verify`` (identity suite, or recomputation of a stored run), ``info``
(conventions).  Exit codes: 0 success, 2 validation problem, 3 solver
non-convergence.

All outputs are byte-deterministic for a fixed config and seed; wall-clock
stage timings are the one exception and live alone in ``timings.json``.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .chern import conformal_chern, represent_ch2, represent_ch2_diagnostics
from .config import (build_cym_config, build_segre_params, config_echo, get_float,
                     get_floats, get_int, get_str, load_config, segre_echo)
from .cwf import dump_json, dump_jsonl, read_field, stable_hash, write_field, write_profile_csv
from .cym import CymConfig, CymState
from .errors import (GridMismatch, InfeasibleDegree, LatticeMismatch,
                     MassMismatch, NoConvergence, NonZeroMean, NotConverged,
                     NotElliptic, PositivityLost, RhsNotPositive, ValidationError)
from .grids import BiTorusGrid, Lattice, ScalarField, TorusGrid
from .monge_ampere import (assemble_ma, segre_diagnostics, solve_ma,
                           synthetic_conformal_data)
from .solvers import (NewtonOptions, continue_in_alpha, solve_vortex, state_diagnostics,
                      vortex_state)
from .theta import SectionData, ThetaBundle, build_section

_VALIDATION = (ValidationError, InfeasibleDegree, RhsNotPositive, MassMismatch,
               NonZeroMean, LatticeMismatch, GridMismatch)
_NONCONVERGENCE = (NoConvergence, NotElliptic, PositivityLost, NotConverged)
_CERTIFY_MAX_N = 32     # torus grids up to this size get the adjoint certificate
_STATE_FILES = ("psi.cwf", "psi2.cwf", "phiK.cwf")


class _Stages:
    """Collects named wall-clock durations; written to timings.json only."""

    def __init__(self):
        self.entries = {}

    def stage(self, name):
        stages = self

        class _Ctx:
            def __enter__(self):
                self.t0 = time.perf_counter()

            def __exit__(self, *exc):
                stages.entries[name] = stages.entries.get(name, 0.0) \
                    + time.perf_counter() - self.t0
                return False

        return _Ctx()


def _out_dir(args) -> Path:
    out = Path(args.out if args.out else "run")
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- pipeline inputs: one builder per pipeline, from a config or a manifest echo


def _torus_inputs(cfg: dict, n=None, tol=None):
    """(CymConfig, SectionData) of vortex-solve, cym-continue and represent-ch2."""
    cym = build_cym_config(cfg, n, tol)
    grid = cym.make_grid()
    kind = get_str(cfg, "section", "theta")
    if kind == "constant":
        return cym, SectionData.constant(grid, cym.d, get_float(cfg, "s0", 1.0))
    if kind == "theta":
        return cym, build_section(ThetaBundle(cym.lattice, cym.d), grid)
    raise ValidationError(f"unknown section kind {kind!r} (use constant or theta)")


def _segre_inputs(p: dict):
    """(ConformalChernData, MAProblem) of segre-solve from build_segre_params output."""
    grid = BiTorusGrid(p["n"], p["n"], Lattice(p["lat1"]), Lattice(p["lat2"]), p["vol"])
    data = synthetic_conformal_data(grid, p["r"], p["epsilon"], p["seed"])
    data.kl_const = p["kl_const"]
    return data, assemble_ma(data)


# -- outputs --------------------------------------------------------------------


def _write_torus_inputs(outdir: Path, cfg: dict, cym: CymConfig, sec) -> list:
    """S0, the section sidecar and, when set, eta of a torus run."""
    kind = get_str(cfg, "section", "theta")
    zeros = ThetaBundle(cym.lattice, cym.d).effective_zeros() if kind == "theta" else None
    dump_json(outdir / "section.json", {
        "degree": cym.d,
        "tau_lat": [cym.lattice.tau_lat.real, cym.lattice.tau_lat.imag],
        "vol": cym.vol,
        "section": kind,
        "zero_points": None if zeros is None else [[z.real, z.imag] for z in zeros],
        "s0": get_float(cfg, "s0", 1.0),
    })
    write_field(outdir / "S0.cwf", sec.S0.values)
    files = ["S0.cwf", "section.json"]
    if cym.f_eta is not None:
        write_field(outdir / "eta.cwf", cym.eta_values(sec.grid))
        files.append("eta.cwf")
    return files


def _write_state(outdir: Path, state: CymState) -> list:
    for name, f in zip(_STATE_FILES, (state.psi, state.psi2, state.phiK)):
        write_field(outdir / name, f.values)
    return list(_STATE_FILES)


def _write_manifest(outdir: Path, command: str, cfg_echo: dict, grid_hashes: dict,
                    files: list, diagnostics: dict, stages: _Stages) -> None:
    dump_json(outdir / "manifest.json", {
        "command": command,
        "config": cfg_echo,
        "version": __version__,
        "grid_hashes": grid_hashes,
        "outputs": sorted(files),
        "diagnostics": diagnostics,
    })
    dump_json(outdir / "timings.json", {"stage_seconds": stages.entries})


def _sigma_grid_hash(cym: CymConfig) -> dict:
    return {"sigma": stable_hash(cym.n, cym.lattice.tau_lat, cym.vol)}


def _continue_summary(steps: int, alpha: float, note: str, diagnostics: dict) -> dict:
    """The cym-continue manifest diagnostics: the last accepted state's, prefixed."""
    return {"steps_accepted": steps, "last_alpha": alpha, "note": note,
            **{f"last_{k}": v for k, v in diagnostics.items()}}


# -- subcommands --------------------------------------------------------------


def cmd_vortex_solve(args) -> int:
    cfg = load_config(args.config)
    stages = _Stages()
    with stages.stage("section"):
        cym, sec = _torus_inputs(cfg, args.n, args.tol)
    cym = cym.with_alpha(0.0)
    with stages.stage("solve"):
        state = vortex_state(sec, cym, NewtonOptions(tol_res=args.tol))
    with stages.stage("diagnostics"):
        diag = state_diagnostics(state, cym, sec, with_certificate=cym.n <= _CERTIFY_MAX_N)
    out = _out_dir(args)
    files = _write_state(out, state) + _write_torus_inputs(out, cfg, cym, sec)
    xs = np.arange(cym.n) / cym.n
    write_profile_csv(out / "profile.csv", {
        "x": xs, "psi": state.psi.values[:, 0],
        "S": state.S_values(sec)[:, 0], "w_sigma": state.w_sigma_values()[:, 0],
    })
    files.append("profile.csv")
    _write_manifest(out, "vortex-solve", config_echo(cfg, cym), _sigma_grid_hash(cym),
                    files, diag, stages)
    if get_str(cfg, "section", "theta") == "constant":
        print(f"psi constant value {float(state.psi.values[0, 0]):.6f}")
    print(f"vortex residual sup {diag['residual_sup']:.3e}")
    print(f"constraint gap {diag['constraint_gap_rel']:.3e}")
    print(f"wrote {out}")
    return 0


def cmd_cym_continue(args) -> int:
    cfg = load_config(args.config)
    alphas = get_floats(cfg, "alphas", [0.0])
    stages = _Stages()
    with stages.stage("section"):
        cym, sec = _torus_inputs(cfg, args.n, args.tol)
    with stages.stage("continuation"):
        records = continue_in_alpha(cym, sec, alphas, NewtonOptions(tol_res=args.tol),
                                    with_certificate=cym.n <= _CERTIFY_MAX_N)
    out = _out_dir(args)
    files, rows = [], []
    for i, rec in enumerate(records):
        sub = f"state_{i:03d}"
        (out / sub).mkdir(exist_ok=True)
        files += [f"{sub}/{f}" for f in _write_state(out / sub, rec.state)]
        rows.append({"alpha": rec.alpha, "note": rec.note,
                     "diagnostics": rec.diagnostics, "state_dir": sub})
    dump_jsonl(out / "records.jsonl", rows)
    files += ["records.jsonl"] + _write_torus_inputs(out, cfg, cym, sec)
    last = records[-1]
    _write_manifest(out, "cym-continue",
                    config_echo(cfg, cym, {"alphas": alphas}), _sigma_grid_hash(cym), files,
                    _continue_summary(len(records), last.alpha, last.note, last.diagnostics),
                    stages)
    print(f"accepted {len(records)} states up to alpha = {last.alpha:g}")
    if last.note != "completed":
        print(f"stopped early: {last.note} (last good alpha = {last.alpha:g})")
    print(f"wrote {out}")
    return 0


def cmd_represent_ch2(args) -> int:
    cfg = load_config(args.config)
    stages = _Stages()
    with stages.stage("section"):
        cym, sec = _torus_inputs(cfg, args.n, args.tol)
    seed = args.seed if args.seed is not None else get_int(cfg, "seed", 0)
    g = sec.grid
    rng = np.random.default_rng(seed)
    if cym.f_eta is None:
        eta = ScalarField(g, 1.0 + 0.3 * g.random_smooth(rng, kmax=3))
        cym = replace(cym, f_eta=eta)      # mass renormalized on construction
    h1_amp = get_float(cfg, "h1_amp", 0.2)
    h1 = ScalarField(g, h1_amp * g.random_smooth(rng, kmax=3))
    with stages.stage("solve"):
        f2 = represent_ch2(cym, sec, h1)
    with stages.stage("diagnostics"):
        diag = represent_ch2_diagnostics(cym, sec, h1, f2)
    out = _out_dir(args)
    write_field(out / "f2.cwf", f2.values)
    write_field(out / "h1.cwf", h1.values)
    files = ["f2.cwf", "h1.cwf"] + _write_torus_inputs(out, cfg, cym, sec)
    draws = {"h1_amp": h1_amp, "seed": seed}
    _write_manifest(out, "represent-ch2", config_echo(cfg, cym, draws),
                    _sigma_grid_hash(cym), files, {**diag, **draws}, stages)
    print(f"representation defect sup {diag['defect_sup']:.3e}")
    print(f"wrote {out}")
    return 0


def cmd_segre_solve(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    p = build_segre_params(cfg, args.n, args.seed, args.tol)
    stages = _Stages()
    with stages.stage("assemble"):
        data, prob = _segre_inputs(p)
    with stages.stage("solve"):
        phi = solve_ma(prob, NewtonOptions(tol_res=p["tol_res"]))
    with stages.stage("certify"):
        diag, segre2 = segre_diagnostics(prob, data, phi)
    out = _out_dir(args)
    write_field(out / "phi.cwf", phi.values)
    write_field(out / "segre2.cwf", segre2.values)
    write_field(out / "eta.cwf", data.eta.values)
    write_field(out / "rhs.cwf", prob.rhs.values)
    files = ["phi.cwf", "segre2.cwf", "eta.cwf", "rhs.cwf"]
    xs = np.arange(p["n"]) / p["n"]
    write_profile_csv(out / "profile.csv", {
        "x1": xs, "phi": phi.values[:, 0, 0, 0],
        "segre2": segre2.values[:, 0, 0, 0], "eta": data.eta.values[:, 0, 0, 0],
    })
    files.append("profile.csv")
    grids = {"factor1": stable_hash(p["n"], p["lat1"], p["vol"]),
             "factor2": stable_hash(p["n"], p["lat2"], p["vol"])}
    _write_manifest(out, "segre-solve", segre_echo(p), grids, files, diag, stages)
    cert = diag["certificate"]
    print(f"ma residual sup {diag['residual_sup']:.3e} "
          f"(resolved {diag['residual_resolved_sup']:.3e})")
    print(f"certificate minima: c1 {cert['min_c1_eig']:.4f}, c2 {cert['min_c2']:.4f}, "
          f"segre2 {cert['min_segre2']:.4f}")
    print("positivity certificate " + ("PASSED" if cert["passed"] else "FAILED"))
    print(f"wrote {out}")
    return 0


def cmd_info(args) -> int:
    print(f"cymlab {__version__}")
    print("coordinates: z = x + tau_lat*y, (x, y) in [0,1)^2, FFT axes lattice-independent")
    print("background form: constant density, total mass vol")
    print("ddc convention: (sqrt(-1)/(2 pi)) d dbar; c1 = (sqrt(-1)/(2 pi)) tr Theta")
    print("gauge: Poisson solves and the fields psi2, phiK carry no mean and no")
    print("       Nyquist-line content (the derivative symbols annihilate both)")
    print("field format CWF1: magic 'CWF1', u32 rank, u32 dims[rank],")
    print("       little-endian f64 values, row-major")
    print("config: flat 'key = value' lines, '#' comments")
    print("exit codes: 0 ok, 2 validation, 3 non-convergence")
    return 0


# -- verify -------------------------------------------------------------------


def _check(rows, name, value, tol):
    rows.append((name, float(value), float(tol), bool(abs(value) <= tol)))


def _verify_suite(n: int, seed: int) -> int:
    """Identity and property checks at grid size n; prints a pass/fail table."""
    from .grids import (ddbar, integrate, invert_laplacian, laplacian,
                        wedge_square)
    rng = np.random.default_rng(seed)
    rows = []
    lat = Lattice(0.3 + 1.1j)
    g = TorusGrid(n, lat, 4.0 * np.pi ** 2)
    u = ScalarField(g, g.random_smooth(rng))
    v = ScalarField(g, g.random_smooth(rng))
    lap_u = laplacian(u)
    scale = float(np.max(np.abs(lap_u.values)))
    _check(rows, "poisson round-trip", np.max(np.abs(
        invert_laplacian(lap_u).values - u.zero_mean().values)) / np.max(np.abs(u.values)),
        1e-10)
    _check(rows, "integration by parts",
           (integrate(u * laplacian(v)) - integrate(v * lap_u)) / (scale * g.vol), 1e-10)
    _check(rows, "laplacian zero mass", integrate(lap_u) / (scale * g.vol), 1e-12)
    bg = BiTorusGrid(max(8, n // 2), max(8, n // 2), Lattice(1j), Lattice(0.3 + 0.9j), 2.0)
    phi4 = ScalarField(bg, bg.random_smooth(rng, kmax=3))
    _check(rows, "exact-form wedge mass",
           bg.integrate_values(wedge_square(ddbar(phi4)).values), 1e-10)

    sec = build_section(ThetaBundle(lat, 1), g)
    _check(rows, "curvature integrality",
           integrate(sec.rho0) / (2.0 * np.pi) - 1.0, 1e-10)
    from .theta import section_norm_at
    zp = 0.31 + lat.tau_lat * 0.17
    base = section_norm_at(ThetaBundle(lat, 1), zp)
    _check(rows, "section norm periodicity", max(
        abs(section_norm_at(ThetaBundle(lat, 1), zp + 1.0) - base),
        abs(section_norm_at(ThetaBundle(lat, 1), zp + lat.tau_lat) - base)) / base, 1e-12)

    cym = CymConfig(tau=2.0, alpha=0.0, d=1, vol=4.0 * np.pi ** 2, lattice=lat, n=n)
    state = vortex_state(sec, cym)
    from .cym import constraint_integral
    lhs, rhs_c = constraint_integral(state, cym, sec)
    _check(rows, "constraint integral", (lhs - rhs_c) / abs(rhs_c), 1e-8)

    # the next two compare spectral derivatives of the section against exact
    # pointwise quantities; they need the theta data resolved, so they run at
    # n >= 64 regardless of the suite size
    n_hi = max(n, 64)
    g_hi = TorusGrid(n_hi, lat, 4.0 * np.pi ** 2)
    sec_hi = build_section(ThetaBundle(lat, 1), g_hi)
    cym_hi = replace(cym, n=n_hi)
    state_hi = vortex_state(sec_hi, cym_hi)
    from .theta import weitzenbock_defect
    wb = weitzenbock_defect(sec_hi, state_hi.psi).values
    _check(rows, "weitzenbock nonnegativity",
           min(float(np.min(wb)), 0.0) / float(np.max(wb)), 1e-8)

    glat = Lattice(1j)
    gq = TorusGrid(n, glat, 4.0 * np.pi ** 2)
    secq = SectionData.constant(gq, 1, 1.0)
    cymq = CymConfig(tau=2.0, alpha=0.0, d=1, vol=4.0 * np.pi ** 2, lattice=glat, n=n)
    psic = solve_vortex(secq, cymq)
    _check(rows, "constant closed form",
           float(np.max(np.abs(psic.values + np.log(2.0 - 1.0 / np.pi)))), 1e-12)

    from .chern import ch2_form, ch2_form_curvature_route
    from .solvers import newton_correct
    cyma = replace(cym_hi, alpha=1.0)
    sta = newton_correct(state_hi, cyma, sec_hi)
    forms = ch2_form(sta, cyma, sec_hi)
    route_b = ch2_form_curvature_route(sta, cyma, sec_hi)
    _check(rows, "ch2 two-route equality",
           np.max(np.abs(forms.ch2_density.values - route_b.values)), 1e-10)
    _check(rows, "ch2 zero mass", integrate(forms.ch2_density), 1e-10)

    from .chern import invariance_defect, segre2_rearranged
    worst_seg = worst_inv = 0.0
    phi_c = ScalarField(bg, 0.1 * bg.random_smooth(rng, kmax=3))
    for r in (2, 3, 4):
        data = synthetic_conformal_data(bg, r, epsilon=0.05, seed=seed + r)
        _, _, seg = conformal_chern(data, phi_c)
        worst_seg = max(worst_seg, float(np.max(np.abs(
            seg.values - segre2_rearranged(data, phi_c).values))))
        worst_inv = max(worst_inv, invariance_defect(data, phi_c))
    _check(rows, "segre two-route equality", worst_seg, 1e-10)
    _check(rows, "conformal invariance", worst_inv, 1e-10)
    data = synthetic_conformal_data(bg, 2, epsilon=0.05, seed=seed)
    base = (1.0 / 2.0) * data.c1_0
    _check(rows, "ma mass conservation",
           bg.integrate_values(wedge_square(base + ddbar(phi_c)).values)
           - bg.integrate_values(wedge_square(base).values), 1e-10)

    width = max(len(r[0]) for r in rows)
    ok = True
    for name, value, tol, passed in rows:
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name:<{width}}  "
              f"|value| {abs(value):.3e}  tol {tol:.1e}")
    print(f"{sum(p for *_, p in rows)}/{len(rows)} checks passed")
    return 0 if ok else 2


_SKIPPED = {"newton_iters", "seed", "h1_amp"}   # solve history and represent-ch2 draws


def _compare_numbers(rows, prefix, stored: dict, fresh: dict):
    """One row per key of either dict; numbers agree to 1e-8, bools and strings exactly."""
    for key in sorted((set(stored) | set(fresh)) - _SKIPPED):
        a, b = stored.get(key), fresh.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            _compare_numbers(rows, f"{prefix}{key}.", a, b)
            continue
        if isinstance(a, (bool, str)) or isinstance(b, (bool, str)):
            ok = type(a) is type(b) and a == b
        else:
            ok = (isinstance(a, (int, float)) and isinstance(b, (int, float))
                  and abs(a - b) <= 1e-8 * max(1.0, abs(a), abs(b)))
        rows.append((f"{prefix}{key}", a, b, ok))


def _state_replay(d: Path, cym: CymConfig, sec) -> dict:
    """state_diagnostics of the state stored in d, under the solve's certificate rule."""
    state = CymState(*(ScalarField(sec.grid, read_field(d / f)) for f in _STATE_FILES))
    try:
        return state_diagnostics(state, cym, sec, with_certificate=cym.n <= _CERTIFY_MAX_N)
    except NotConverged:    # the stored state does not solve; sigma_min is reported missing
        return state_diagnostics(state, cym, sec, with_certificate=False)


def _verify_run(run: Path) -> int:
    """Rebuild the inputs from the manifest echo, load the stored fields, recompute
    the diagnostics through the function the solve used, and compare."""
    import json
    manifest = json.loads((run / "manifest.json").read_text())
    command, echo, stored = manifest["command"], manifest["config"], manifest["diagnostics"]
    rows = []
    if command == "segre-solve":
        data, prob = _segre_inputs(build_segre_params(echo))
        phi = ScalarField(prob.grid, read_field(run / "phi.cwf"))
        _compare_numbers(rows, "", stored, segre_diagnostics(prob, data, phi)[0])
    elif command in ("vortex-solve", "cym-continue", "represent-ch2"):
        if (run / "eta.cwf").exists():      # eta exactly as the run used it
            echo = {**echo, "eta_file": "eta.cwf", "_dir": str(run)}
        cym, sec = _torus_inputs(echo)
        if command == "vortex-solve":
            _compare_numbers(rows, "", stored, _state_replay(run, cym, sec))
        elif command == "cym-continue":
            lines = (run / "records.jsonl").read_text().splitlines()
            for line in lines:
                rec = json.loads(line)
                fresh = _state_replay(run / rec["state_dir"], cym.with_alpha(rec["alpha"]), sec)
                _compare_numbers(rows, f"alpha={rec['alpha']:g}: ", rec["diagnostics"], fresh)
            # the summary: run history from records.jsonl, numbers from the last replay
            fresh["newton_iters"] = rec["diagnostics"].get("newton_iters")
            _compare_numbers(rows, "summary: ", stored,
                             _continue_summary(len(lines), rec["alpha"], rec["note"], fresh))
        else:
            h1, f2 = (ScalarField(sec.grid, read_field(run / f)) for f in ("h1.cwf", "f2.cwf"))
            _compare_numbers(rows, "", stored, represent_ch2_diagnostics(cym, sec, h1, f2))
    else:
        raise ValidationError(f"cannot verify run of command {command!r}")
    ok = True
    for name, stored_v, fresh_v, passed in rows:
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}  stored {stored_v!r} "
              f"recomputed {fresh_v!r}")
    print(f"{sum(p for *_, p in rows)}/{len(rows)} stored numbers reproduced")
    return 0 if ok else 2


def cmd_verify(args) -> int:
    if args.run:
        return _verify_run(Path(args.run))
    return _verify_suite(args.n if args.n else 32,
                         args.seed if args.seed is not None else 0)


# -- entry point --------------------------------------------------------------


def _add_common(p, config_required=True):
    p.add_argument("--config", required=config_required, help="flat key = value config file")
    p.add_argument("--out", help="output directory (default: ./run)")
    p.add_argument("--n", type=int, help="grid size override")
    p.add_argument("--seed", type=int, help="seed override for synthetic data")
    p.add_argument("--tol", type=float, help="solver residual tolerance override")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cymlab",
        description="Calabi-Yang-Mills and Segre-form pipelines on flat model surfaces")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("vortex-solve", help="alpha = 0 vortex pipeline"))
    _add_common(sub.add_parser("cym-continue", help="continuation over an alpha list"))
    _add_common(sub.add_parser("represent-ch2", help="conformal fiber factor for a target"))
    _add_common(sub.add_parser("segre-solve", help="bi-torus Monge-Ampere pipeline"),
                config_required=False)
    pv = sub.add_parser("verify", help="identity suite, or recompute a stored run")
    pv.add_argument("--run", help="run directory to recompute")
    pv.add_argument("--n", type=int, help="grid size for the identity suite")
    pv.add_argument("--seed", type=int, help="seed for the identity suite")
    sub.add_parser("info", help="print conventions and formats")

    args = parser.parse_args(argv)
    handlers = {
        "vortex-solve": cmd_vortex_solve,
        "cym-continue": cmd_cym_continue,
        "represent-ch2": cmd_represent_ch2,
        "segre-solve": cmd_segre_solve,
        "verify": cmd_verify,
        "info": cmd_info,
    }
    try:
        return handlers[args.command](args)
    except _VALIDATION as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NONCONVERGENCE as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
