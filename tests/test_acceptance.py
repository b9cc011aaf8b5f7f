"""Acceptance gate: one test per release criterion.

Each criterion is a single test function, so the verbose report reads as one
pass/fail line per criterion.  Tolerances are the contract values, asserted
literally; runtime caps are measured around the work the criterion names.
"""

import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from cymlab.chern import (ch2_form, ch2_form_curvature_route, conformal_chern,
                          invariance_defect, represent_ch2, represent_ch2_diagnostics,
                          segre2_rearranged)
from cymlab.cym import (CymConfig, CymState, alpha_threshold, eliminate_phiK,
                        residuals)
from cymlab.grids import (BiTorusGrid, Form11Field, Lattice, ScalarField,
                          TorusGrid, ddbar, integrate, laplacian,
                          invert_laplacian, wedge_square)
from cymlab.monge_ampere import (MAProblem, assemble_ma, certify_positivity,
                                 ma_residual, solve_ma, synthetic_conformal_data)
from cymlab.solvers import (apply_DT, continue_in_alpha, newton_correct,
                            solve_psi2, solve_vortex, vortex_residual)
from cymlab.theta import SectionData, ThetaBundle, build_section, section_norm_at

VOL = 4.0 * np.pi ** 2
SQ = Lattice(1j)


class _Clock:
    """Asserts the enclosed work finishes inside the stated cap."""

    def __init__(self, cap_seconds):
        self.cap = cap_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.cap, f"runtime {elapsed:.1f}s exceeds cap {self.cap}s"
        return False


def _cfg(alpha=0.0, n=32, **kw):
    return CymConfig(tau=2.0, alpha=alpha, d=1, vol=VOL, n=n, **kw)


def _solved_state(sec, cfg):
    psi = solve_vortex(sec, cfg)
    psi2 = solve_psi2(psi, cfg, sec)
    return CymState(psi, psi2, eliminate_phiK(psi, psi2, cfg, sec))


def test_criterion_1_spectral_calculus():
    # round-trip and integration-by-parts to 1e-10 relative at n=32; spectral
    # convergence across n in {16, 32, 64}; under 5 s
    with _Clock(5.0):
        g = TorusGrid(32, SQ, VOL)
        rng = np.random.default_rng(101)
        w = ScalarField(g, g.zero_mean_values(g.random_smooth(rng, kmax=9)))
        u = invert_laplacian(w)
        rt = np.max(np.abs(laplacian(u).values - w.values)) / np.max(np.abs(w.values))
        assert rt <= 1e-10

        a = ScalarField(g, g.random_smooth(rng, kmax=10))
        b = ScalarField(g, g.random_smooth(rng, kmax=10))
        ia, ib = integrate(a * laplacian(b)), integrate(b * laplacian(a))
        assert abs(ia - ib) <= 1e-10 * max(abs(ia), abs(ib))

        src = lambda x, y: np.exp(np.cos(2 * np.pi * x)) * np.cos(2 * np.pi * y)
        ref = TorusGrid(128, SQ, VOL)
        wr = src(ref.x, ref.y)
        wr -= np.mean(wr)
        ur = ref.invert_values(wr)
        errs = []
        for n in (16, 32, 64):
            gn = TorusGrid(n, SQ, VOL)
            wn = src(gn.x, gn.y)
            wn -= np.mean(wn)
            errs.append(np.max(np.abs(gn.invert_values(wn) - ur[::128 // n, ::128 // n])))
        assert errs[1] <= 1e-4 * errs[0] and errs[2] <= errs[1], errs


def test_criterion_2_theta_bundle():
    # S0 double periodicity to 1e-12; curvature mass exactly 2 pi d;
    # Weitzenbock density nonnegative to 1e-8 relative; under 5 s
    with _Clock(5.0):
        from cymlab.theta import weitzenbock_defect
        probes = np.array([0.137 + 0.241j, -0.52 + 0.83j, 0.9 - 0.4j])
        for d in (1, 2):
            bundle = ThetaBundle(SQ, d)
            s = section_norm_at(bundle, probes)
            for shift in (1.0, SQ.tau_lat):
                assert np.max(np.abs(section_norm_at(bundle, probes + shift) - s)) \
                    <= 1e-12 * np.max(s)
        g = TorusGrid(64, SQ, VOL)
        sec = build_section(ThetaBundle(SQ, 1), g)
        assert abs(integrate(sec.rho0) - 2.0 * np.pi) <= 1e-10
        psi = solve_vortex(sec, _cfg(n=64))
        wb = weitzenbock_defect(sec, psi).values
        assert np.min(wb) >= -1e-8 * np.max(wb)


def test_criterion_3_vortex_alpha_zero():
    # constant closed form to 1e-12; theta residual <= 1e-10 sup at n=64;
    # max principle; uniqueness across 5 starts to 1e-8; constraint integral
    # matches tau vol - 4 pi d to 1e-8 relative; under 30 s
    with _Clock(30.0):
        gc = TorusGrid(16, SQ, VOL)
        secc = SectionData.constant(gc, 1, 1.0)
        psic = solve_vortex(secc, _cfg(n=16))
        assert np.max(np.abs(psic.values + np.log(2.0 - 1.0 / np.pi))) <= 1e-12

        cfg = _cfg(n=64)
        g = TorusGrid(64, SQ, VOL)
        sec = build_section(ThetaBundle(SQ, 1), g)
        psi = solve_vortex(sec, cfg)
        assert np.max(np.abs(vortex_residual(psi, cfg, sec).values)) <= 1e-10
        S = sec.S0.values * np.exp(-psi.values)
        assert np.max(S) <= cfg.tau * (1.0 + 1e-8)
        assert abs(integrate(ScalarField(g, S)) - (cfg.tau * VOL - 4.0 * np.pi)) \
            <= 1e-8 * (cfg.tau * VOL - 4.0 * np.pi)

        cfg32 = _cfg(n=32)
        g32 = TorusGrid(32, SQ, VOL)
        sec32 = build_section(ThetaBundle(SQ, 1), g32)
        rng = np.random.default_rng(103)
        base = solve_vortex(sec32, cfg32)
        for _ in range(5):
            start = ScalarField(g32, 2.0 * g32.random_smooth(rng, kmax=3))
            other = solve_vortex(sec32, cfg32, psi0=start)
            assert np.max(np.abs(other.values - base.values)) <= 1e-8


def test_criterion_4_linearization():
    # apply_DT against forward differences with observed order >= 0.9 over
    # h in {1e-4, 1e-5, 1e-6}; ellipticity positive on every accepted state;
    # satisfaction gate truncates the constant-data path at the threshold
    g = TorusGrid(32, SQ, VOL)
    sec = build_section(ThetaBundle(SQ, 1), g)
    st = _solved_state(sec, _cfg())
    cfg = _cfg(alpha=3.0)
    rng = np.random.default_rng(104)
    dots = tuple(ScalarField(g, g.random_smooth(rng, kmax=3)) for _ in range(3))
    lin = apply_DT(st, cfg, sec, dots)
    base = residuals(st, cfg, sec)
    errs = []
    for h in (1e-4, 1e-5, 1e-6):
        pert = CymState(st.psi + h * dots[0], st.psi2 + h * dots[1], st.phiK + h * dots[2])
        fd = residuals(pert, cfg, sec)
        errs.append(max(np.max(np.abs((f.values - b.values) / h - l.values))
                        for f, b, l in zip(fd, base, lin)))
    order = np.log10(errs[0] / errs[2]) / 2.0
    assert order >= 0.9, f"observed order {order:.3f}, errors {errs}"

    recs = continue_in_alpha(_cfg(n=16), build_section(ThetaBundle(SQ, 1),
                                                       TorusGrid(16, SQ, VOL)),
                             [0.0, 1.0, 2.0, 3.0], with_certificate=False)
    assert all(r.diagnostics["min_ellipticity"] > 0.0 for r in recs)

    gc = TorusGrid(16, SQ, VOL)
    secc = SectionData.constant(gc, 1, 1.0)
    cfgc = _cfg(n=16)
    a_star = alpha_threshold(cfgc)    # 187.8035... for this geometry
    step = 2.0
    alphas = [0.0] + list(np.arange(180.0, 196.0, step))
    recs = continue_in_alpha(cfgc, secc, alphas, with_certificate=False)
    accepted = [r.alpha for r in recs]
    # truncation exactly at the analytic threshold, to one step's resolution
    assert accepted[-1] == max(a for a in alphas if a < a_star)
    assert "satisfaction" in recs[-1].note


def test_criterion_5_continuation():
    # at least 5 accepted positive steps on theta data at n=32 with every
    # diagnostic holding; halving the step reproduces shared states to 1e-8;
    # under 5 min
    with _Clock(300.0):
        cfg = _cfg()
        g = TorusGrid(32, SQ, VOL)
        sec = build_section(ThetaBundle(SQ, 1), g)
        alphas = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
        recs = continue_in_alpha(cfg, sec, alphas, with_certificate=True)
        assert recs[-1].note == "completed"
        assert len([r for r in recs if r.alpha > 0.0]) >= 5
        for r in recs:
            d = r.diagnostics
            assert d["min_w_sigma"] > 0.0
            assert d["max_S_minus_tau"] <= 1e-8
            assert d["min_ellipticity"] > 0.0
            assert d["sigma_min"] > 0.0
            assert d["residual_sup"] <= 1e-10

        halved = [0.0] + list(np.arange(0.25, 2.51, 0.25))
        recs_h = continue_in_alpha(cfg, sec, halved, with_certificate=False)
        by_alpha = {r.alpha: r.state for r in recs_h}
        for r in recs:
            other = by_alpha[r.alpha]
            for f, o in ((r.state.psi, other.psi), (r.state.psi2, other.psi2),
                         (r.state.phiK, other.phiK)):
                assert np.max(np.abs(f.values - o.values)) <= 1e-8


def test_criterion_6_ch2_and_representability():
    # ch2 mass zero to 1e-10 on solved states; two-route equality to 1e-10;
    # represent_ch2 hits a random positive mass-normalized target to 1e-8
    # sup-norm; under 30 s
    with _Clock(30.0):
        g = TorusGrid(64, SQ, VOL)
        sec = build_section(ThetaBundle(SQ, 1), g)
        st0 = _solved_state(sec, _cfg(n=64))
        cfg1 = _cfg(alpha=1.0, n=64)
        st1 = newton_correct(st0, cfg1, sec)
        for st, cfg in ((st0, _cfg(n=64)), (st1, cfg1)):
            forms = ch2_form(st, cfg, sec)
            assert abs(integrate(forms.ch2_density)) <= 1e-10
        two = ch2_form_curvature_route(st1, cfg1, sec)
        assert np.max(np.abs(ch2_form(st1, cfg1, sec).ch2_density.values
                             - two.values)) <= 1e-10

        g32 = TorusGrid(32, SQ, VOL)
        sec32 = build_section(ThetaBundle(SQ, 1), g32)
        rng = np.random.default_rng(106)
        eta = ScalarField(g32, 1.0 + 0.3 * g32.random_smooth(rng, kmax=3))
        cfg = _cfg(alpha=5.0, f_eta=eta)
        h1 = ScalarField(g32, 0.2 * g32.random_smooth(rng, kmax=3))
        f2 = represent_ch2(cfg, sec32, h1)
        assert represent_ch2_diagnostics(cfg, sec32, h1, f2)["defect_sup"] <= 1e-8


def test_criterion_7_conformal_identities():
    # two-route Segre equality and conformal invariance to 1e-10 pointwise
    # for ranks 2, 3, 4 on random product-torus data
    g = BiTorusGrid(16, 16, SQ, Lattice(0.3 + 0.9j), 2.0)
    rng = np.random.default_rng(107)
    phi = ScalarField(g, 0.1 * g.random_smooth(rng, kmax=3))
    for r in (2, 3, 4):
        data = synthetic_conformal_data(g, r, epsilon=0.05, seed=500 + r)
        _, _, seg = conformal_chern(data, phi)
        assert np.max(np.abs(seg.values - segre2_rearranged(data, phi).values)) <= 1e-10
        assert invariance_defect(data, phi) <= 1e-10


def test_criterion_8_monge_ampere():
    # manufactured solution to 1e-6 sup at n=16; exact mass identity to 1e-10;
    # certificate passes across the small-epsilon suite; closed-form c2 agrees
    # to solver tolerance on the reachable modes; under 3 min
    with _Clock(180.0):
        g = BiTorusGrid(16, 16, SQ, Lattice(0.3 + 0.9j), 2.0)
        rng = np.random.default_rng(108)
        base = Form11Field.constant(g, 2.0, 0.25 + 0.15j, 2.4)
        phi_star = ScalarField(g, g.project_resolved(0.08 * g.random_smooth(rng, kmax=2)))
        rhs = ScalarField(g, 3.0 * wedge_square(base + ddbar(phi_star)).values)
        phi = solve_ma(MAProblem(g, 2, base, rhs))
        err = (phi - phi_star).values
        assert np.max(np.abs(err - np.mean(err))) <= 1e-6

        for r, eps in ((2, 0.02), (2, 0.05), (2, 0.1), (3, 0.05)):
            data = synthetic_conformal_data(g, r, epsilon=eps, seed=800 + r)
            prob = assemble_ma(data)
            phi = solve_ma(prob)
            total = prob.base + ddbar(phi)
            mass = g.integrate_values(wedge_square(total).values)
            base_mass = g.integrate_values(wedge_square(prob.base).values)
            assert abs(mass - base_mass) <= 1e-10 * abs(base_mass)
            c1, c2, seg = conformal_chern(data, phi)
            cert = certify_positivity(data, c1, c2, seg)
            assert cert.passed, (r, eps)
            # closed-form c2: exact on the modes the solver controls; the
            # full-sup gap is the invisible spectral tail of the grid
            closed = ((r - 1) * data.eta.values - (r - 1) * wedge_square(c1).values
                      + 2.0 * r * c2.values) / (r + 1.0)
            gap = c2.values - closed
            assert np.max(np.abs(g.project_resolved(gap))) <= 1e-9
            assert cert.c2_closed_form_sup == pytest.approx(
                (r - 1) / (r + 1.0) * cert.segre2_vs_eta_sup, rel=1e-10)


CFGS = {
    "vortex-solve": f"tau = 2.0\nalpha = 0.0\nd = 1\nvol = {VOL!r}\nn = 16\n"
                    "section = constant\ns0 = 1.0\n",
    "cym-continue": f"tau = 2.0\nd = 1\nvol = {VOL!r}\nn = 16\nsection = theta\n"
                    "alphas = 0.0, 0.8, 1.6\n",
    "represent-ch2": f"tau = 2.0\nalpha = 5.0\nd = 1\nvol = {VOL!r}\nn = 16\n"
                     "section = theta\nseed = 4\nh1_amp = 0.2\n",
}


def test_criterion_9_determinism(tmp_path):
    # two runs of every subcommand produce byte-identical files (wall-clock
    # timings live in their own sidecar) and identical reports
    def run(*args):
        return subprocess.run([sys.executable, "-m", "cymlab.cli", *map(str, args)],
                              capture_output=True, text=True)

    stdouts = {"a": {}, "b": {}}
    for tag in ("a", "b"):
        root = tmp_path / tag
        root.mkdir()
        for cmd, text in CFGS.items():
            cfgp = tmp_path / f"{cmd}.cfg"
            cfgp.write_text(text)
            r = run(cmd, "--config", cfgp, "--out", root / cmd)
            assert r.returncode == 0, r.stderr
        r = run("segre-solve", "--out", root / "segre-solve", "--n", 16, "--seed", 3)
        assert r.returncode == 0, r.stderr
        stdouts[tag]["verify"] = run("verify", "--n", 16)
        assert stdouts[tag]["verify"].returncode == 0
        stdouts[tag]["info"] = run("info")
        assert stdouts[tag]["info"].returncode == 0

    for cmd in list(CFGS) + ["segre-solve"]:
        files = sorted(p.relative_to(tmp_path / "a") for p in
                       (tmp_path / "a" / cmd).rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(tmp_path / "b") for p in
                               (tmp_path / "b" / cmd).rglob("*") if p.is_file())
        for rel in files:
            if rel.name == "timings.json":
                continue
            assert (tmp_path / "a" / rel).read_bytes() \
                == (tmp_path / "b" / rel).read_bytes(), str(rel)
    for cmd in ("verify", "info"):
        assert stdouts["a"][cmd].stdout == stdouts["b"][cmd].stdout
