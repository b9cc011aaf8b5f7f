"""cymlab benchmark: closed-loop CLI pipelines, end-to-end and per-layer.

    python3 bench/run.py --workload continue-n32 --seed 1 --seconds 30 --trace 0

Run from the repository root.  One process runs one op at a time: an op is one
in-process ``cymlab.cli.main([...])`` call on inputs generated from
``--seed``, followed by an untimed correctness gate and a timed
``cymlab verify --run`` replay of its output directory.  Ops cycle through a
small pool of seeded inputs until the next op would end past ``--seconds``.
One op is re-run on the same inputs and its output must match byte for byte
(everything except ``timings.json``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
outside-in tracer (``bench/tracer.py``) on alternate passes over the input
pool and prints the per-layer metrics of the first traced pass.  The last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a full record goes to ``bench/out/BENCH_<workload>_seed<seed>[_trace].json``.
See ``bench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP threads before numpy loads; numpy's pocketfft and scipy.fft
# (default workers) are single-threaded already
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import CWF_READERS, CWF_WRITERS, Tracer     # bench/ is sys.path[0]

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

VOL = 4.0 * math.pi ** 2
ALPHAS = (0.0, 0.5, 1.0, 1.5)
SETUP_REPEATS = 7
SEGRE_ETA_TOL = 1e-8      # sup |segre2 - eta| from the files; solves reach ~3e-11 at n=32


@dataclass(frozen=True)
class Workload:
    name: str
    command: str       # cymlab subcommand
    n: int             # grid points per axis
    dims: int          # real dimension of the grid (torus 2, bi-torus 4)
    pool: int          # distinct inputs per run, cycled in order


WORKLOADS = {w.name: w for w in (
    Workload("continue-n32", "cym-continue", 32, 2, 8),
    Workload("continue-n64", "cym-continue", 64, 2, 96),
    Workload("continue-n128", "cym-continue", 128, 2, 4),
    Workload("segre-n32", "segre-solve", 32, 4, 1),
)}

FAILURE_CLASSES = {2: "validation", 3: "non-convergence"}
END_TO_END = ("solve_s", "solves_per_min", "verify_s", "success_ratio", "peak_rss_mb",
              "setup_s")

# per-layer metrics in the result line of a traced run: (name, unit)
PER_LAYER = (
    ("linalg.dense.calls", "count"), ("solvers.certificate.calls", "count"),
    ("linalg.krylov.solves", "count"), ("linalg.krylov.matvecs", "count"),
    ("linalg.krylov.precond_applies", "count"), ("linalg.krylov.matvecs_per_solve", "count"),
    ("linalg.krylov.failed", "count"), ("fft.calls", "count"), ("fft.bytes_computed", "B"),
    ("fft.gflop_computed", "GFLOP"),
    *((f"grids.{g}.calls", "count") for g in (
        "lap_values", "project_resolved", "invisible_part", "ddbar", "wedge_pair",
        "wedge_square")),
    ("solvers.vortex.newton_steps", "count"), ("solvers.corrector.newton_steps", "count"),
    ("monge_ampere.newton_steps", "count"), ("cym.residuals.calls", "count"),
    ("cym.eliminate_phiK.calls", "count"), ("cwf.write.bytes", "B"), ("cwf.read.bytes", "B"),
    ("fft.s", "s"), ("grids.project_resolved.s", "s"), ("cwf.write.s", "s"),
    ("cwf.read.s", "s"), ("cli.self_s", "s"), ("config.self_s", "s"),
    ("grids.self_s", "s"), ("linalg.self_s", "s"), ("trace.overhead", "ratio"),
)
# per-layer seconds that are zero on some workload: printed and recorded in
# the BENCH file, not in the result line
LAYER_SECONDS = (
    "linalg.dense", "solvers.certificate", "linalg.krylov", "solvers.solve_vortex",
    "solvers.continue_in_alpha", "solvers.state_diagnostics", "cym.residuals",
    "cym.eliminate_phiK", "monge_ampere.synthetic_conformal_data",
    "monge_ampere.assemble_ma", "monge_ampere.solve_ma", "monge_ampere.certify_positivity",
    "chern.conformal_chern", "theta.build_section",
    *(f"grids.{g}" for g in ("lap_values", "invisible_part", "ddbar", "wedge_pair",
                             "wedge_square")),
)


# -- inputs -----------------------------------------------------------------------


def write_cwf(path: Path, values: np.ndarray) -> None:
    arr = np.ascontiguousarray(values, dtype="<f8")
    path.write_bytes(b"CWF1" + struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape)
                     + arr.tobytes())


def read_cwf(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if raw[:4] != b"CWF1":
        raise ValueError(f"{path}: not a CWF1 file")
    (rank,) = struct.unpack_from("<I", raw, 4)
    dims = struct.unpack_from(f"<{rank}I", raw, 8)
    return np.frombuffer(raw, dtype="<f8", offset=8 + 4 * rank).reshape(dims)


def smooth_density(rng: np.random.Generator, n: int) -> np.ndarray:
    """1 + 0.3 f with f a real trigonometric polynomial of degree <= 3 per axis,
    zero mean and sup 1 on the grid, scaled to mean 1 (mass vol)."""
    k = np.arange(-3, 4)
    coef = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    e = np.exp(2j * np.pi * np.outer(np.arange(n) / n, k))
    f = np.real(e @ coef @ e.T)
    f -= f.mean()
    eta = 1.0 + 0.3 * f / np.max(np.abs(f))
    return eta / eta.mean()


def make_inputs(w: Workload, seed: int, workdir: Path) -> list[list[str]]:
    """CLI argument lists (without --out) of the run's input pool."""
    seed %= 2 ** 31
    if w.command == "segre-solve":     # seed 0 is the ROADMAP reference input
        return [["segre-solve", "--n", str(w.n), "--seed", str(seed + i)]
                for i in range(w.pool)]
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(w.pool):
        d = workdir / f"input{i}"
        d.mkdir(parents=True)
        lines = ["tau = 2.0", "d = 1", f"vol = {VOL!r}",
                 "alphas = " + ", ".join(map(str, ALPHAS)), "section = theta"]
        if i > 0:       # input 0 is the reference: square lattice, eta = 1
            lines += [f"tau_lat_re = {rng.uniform(-0.3, 0.3)!r}",
                      f"tau_lat_im = {rng.uniform(0.9, 1.3)!r}", "eta_file = eta.cwf"]
            write_cwf(d / "eta.cwf", smooth_density(rng, w.n))
        (d / "run.cfg").write_text("\n".join(lines) + "\n")
        pool.append(["cym-continue", "--config", str(d / "run.cfg"), "--n", str(w.n)])
    return pool


# -- one op --------------------------------------------------------------------------


def call_cli(cli, argv: list[str]):
    """(exit code or None if it raised, seconds, last stderr line)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:   # an escaped exception is a failed op, not a dead benchmark
            traceback.print_exc()
            rc = None
    dt = time.perf_counter() - t0
    lines = err.getvalue().strip().splitlines()
    return rc, dt, lines[-1] if lines else ""


def gate(w: Workload, run: Path) -> str | None:
    """Why the op's stored output is not acceptable, or None."""
    man = json.loads((run / "manifest.json").read_text())
    diag, cfg = man["diagnostics"], man["config"]
    if w.command == "cym-continue":
        if diag["note"] != "completed" or diag["steps_accepted"] < len(ALPHAS):
            return f"stopped early after {diag['steps_accepted']} states: {diag['note']}"
        if diag["last_residual_sup"] > cfg["tol_newton"]:
            return f"last residual {diag['last_residual_sup']:.3e} > {cfg['tol_newton']:.1e}"
        for line in (run / "records.jsonl").read_text().splitlines():
            rec = json.loads(line)
            d = rec["diagnostics"]
            for key in ("min_w_sigma", "min_ellipticity", "sigma_min"):
                if key in d and not d[key] > 0.0:
                    return f"gate {key} = {d[key]:.6g} at alpha = {rec['alpha']:g}"
            fields = {f: read_cwf(run / rec["state_dir"] / f"{f}.cwf")
                      for f in ("psi", "psi2", "phiK")}
            for f, v in fields.items():
                if v.shape != (w.n, w.n) or not np.all(np.isfinite(v)):
                    return f"{rec['state_dir']}/{f}.cwf: bad shape or non-finite values"
            for f in ("psi2", "phiK"):      # gauge: zero mean
                v = fields[f]
                if abs(v.mean()) > 1e-9 * max(1.0, float(np.max(np.abs(v)))):
                    return f"{rec['state_dir']}/{f}.cwf has mean {v.mean():.3e}"
        return None
    cert = diag["certificate"]
    if not cert["passed"]:
        return f"positivity certificate failed: {cert}"
    if diag["residual_resolved_sup"] > cfg["tol_res"]:
        return f"resolved residual {diag['residual_resolved_sup']:.3e} > {cfg['tol_res']:.1e}"
    gap = float(np.max(np.abs(read_cwf(run / "segre2.cwf") - read_cwf(run / "eta.cwf"))))
    if not gap <= SEGRE_ETA_TOL:
        return f"sup |segre2 - eta| = {gap:.3e} > {SEGRE_ETA_TOL:.0e}"
    return None


def run_op(cli, w: Workload, argv: list[str], out: Path) -> dict:
    rec = {"argv": argv[1:], "ok": False, "op_s": None, "verify_s": None,
           "class": None, "stderr": ""}
    rc, rec["op_s"], rec["stderr"] = call_cli(cli, argv + ["--out", str(out)])
    if rc != 0:
        rec["class"] = FAILURE_CLASSES.get(rc, f"exit {rc}" if rc is not None else "crash")
        return rec
    try:
        reason = gate(w, out)
    except (OSError, KeyError, ValueError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    if reason is not None:
        rec["class"], rec["stderr"] = "gate", reason
        return rec
    rc, rec["verify_s"], err = call_cli(cli, ["verify", "--run", str(out)])
    if rc != 0:
        rec["class"], rec["stderr"] = "verify", err
        return rec
    rec["ok"] = True
    return rec


def tree_bytes(run: Path) -> dict:
    return {str(p.relative_to(run)): p.read_bytes() for p in sorted(run.rglob("*"))
            if p.is_file() and p.name != "timings.json"}


def same_bytes(a: dict, b: dict) -> list[str]:
    """Files that differ between two run directories."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


# -- environment and set-up ------------------------------------------------------------


def cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                out[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return out or {"unknown": "cache sizes not readable"}


def environment(w: Workload) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    points = w.n ** w.dims
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{sblas.get('name')} {sblas.get('version')}",
        "blas_threads_pinned": THREADS, "fft_threads": 1,
        "caches": cache_sizes(),
        "grid_points": points,
        "field_bytes_computed": {"real": 8 * points, "complex": 16 * points},
    }


def setup_seconds() -> list[float]:
    """Wall time of a fresh interpreter that imports cymlab.cli and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cymlab.cli"], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - t0)
    return times


# -- metrics ----------------------------------------------------------------------------


def high_percentile(samples: list[float]):
    """(p, value) for the highest whole percentile p >= 50 that has at least
    10 samples beyond it, or None when there are fewer than 20 samples."""
    if len(samples) < 20:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / len(samples)))
    return p, float(np.percentile(samples, p))


def end_to_end(ops: list[dict], setup: list[float]) -> dict:
    ok = [r for r in ops if r["ok"]]
    solve = [r["op_s"] for r in ok]
    verify = [r["verify_s"] for r in ok]
    timed = sum(r["op_s"] for r in ops)
    return {   # a median over no successful op is null, never a made-up number
        "solve_s": (statistics.median(solve) if solve else None, "s", len(solve),
                    high_percentile(solve)),
        "solves_per_min": (60.0 * len(ok) / timed, "1/min", len(ops), None),
        "verify_s": (statistics.median(verify) if verify else None, "s", len(verify),
                     high_percentile(verify)),
        "success_ratio": (len(ok) / len(ops), "ratio", len(ops), None),
        "fail_ratio": (1.0 - len(ok) / len(ops), "ratio", len(ops), None),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        1, None),
        "setup_s": (statistics.median(setup), "s", len(setup), None),
    }


def per_layer(rec, ops: int, overhead: float) -> tuple[dict, dict]:
    """(result-line metrics, full layer table), per op over the first traced pass of
    ``ops`` ops; matvecs_per_solve and trace.overhead are ratios."""
    c = rec.counts
    layer_self = rec.layer_self_seconds()
    totals = {
        "linalg.dense.calls": rec.total("linalg.dense", 0),
        "solvers.certificate.calls": rec.total("solvers.certificate", 0),
        "fft.calls": rec.total("fft", 0),
        "fft.gflop_computed": c["fft.flop_computed"] / 1e9,
        "fft.s": rec.total("fft"),
        "cwf.write.s": rec.total(CWF_WRITERS),
        "cwf.read.s": rec.total(CWF_READERS),
        "grids.project_resolved.s": rec.total("grids.project_resolved"),
    }
    for key in ("linalg.krylov.solves", "linalg.krylov.matvecs",
                "linalg.krylov.precond_applies", "linalg.krylov.failed", "fft.bytes_computed",
                "solvers.vortex.newton_steps", "solvers.corrector.newton_steps",
                "monge_ampere.newton_steps", "cwf.write.bytes", "cwf.read.bytes"):
        totals[key] = c[key]
    for name in ("grids.lap_values", "grids.project_resolved", "grids.invisible_part",
                 "grids.ddbar", "grids.wedge_pair", "grids.wedge_square",
                 "cym.residuals", "cym.eliminate_phiK"):
        totals[f"{name}.calls"] = rec.total(name, 0)
    for layer in ("cli", "config", "grids", "linalg"):
        totals[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    values = {k: v / ops for k, v in totals.items()}
    solves = c["linalg.krylov.solves"]
    values["linalg.krylov.matvecs_per_solve"] = c["linalg.krylov.matvecs"] / solves if solves else 0.0
    values["trace.overhead"] = overhead
    metrics = {name: {"value": None if values[name] is None else float(values[name]),
                      "unit": unit} for name, unit in PER_LAYER}
    table = {
        "seconds_per_op": {name: rec.total(name) / ops for name in LAYER_SECONDS},
        "layer_self_seconds_per_op": {k: v / ops for k, v in sorted(layer_self.items())},
        "spans_per_op": {name: {"calls": st[0] / ops, "s": st[1] / ops, "self_s": st[2] / ops}
                         for name, st in sorted(rec.stats.items())},
        "krylov_solves": rec.krylov,
    }
    return metrics, table


# -- main ----------------------------------------------------------------------------------


def import_cli():
    """cymlab.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "cymlab" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'cymlab'} not found; run from a cymlab checkout")
    sys.path.insert(0, str(SRC))
    import cymlab.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "cymlab").resolve():
        sys.exit(f"error: imported cymlab from {cli.__file__}, expected {SRC / 'cymlab'}")
    return cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    cli = import_cli()
    label = f"{w.name}_seed{args.seed}" + ("_trace" if args.trace else "")
    workdir = OUT / "work" / f"{label}_{os.getpid()}"
    try:
        return measure(cli, w, args, label, workdir, Tracer() if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, w: Workload, args, label: str, workdir: Path, tracer) -> int:
    """Closed loop over the input pool.  With a tracer, passes over the pool
    alternate traced/untraced; the first pass gives the per-layer metrics and
    the first two the tracing overhead."""
    setup = [] if tracer else setup_seconds()
    pool = make_inputs(w, args.seed, workdir)
    min_ops = 2 * w.pool if tracer else 1
    ops, reference, determinism, layers = [], None, None, None
    t_start = time.perf_counter()
    while True:
        i = len(ops)
        if tracer is not None:
            traced = (i // w.pool) % 2 == 0
            if traced and not tracer.installed:
                tracer.install()
            elif not traced and tracer.installed:
                tracer.uninstall()
            if i >= w.pool:
                tracer.take()       # only the first pass is reported
        out = workdir / f"op{i}"
        rec = run_op(cli, w, pool[i % w.pool], out)
        rec["input"], rec["traced"] = i % w.pool, tracer is not None and tracer.installed
        ops.append(rec)
        if tracer is not None:
            tracer.keep_spans = False       # the spans file holds the first op
        if tracer is not None and i == w.pool - 1:
            layers = tracer.take()
        # byte-determinism: op 0 against the first op that repeats its input
        if i == 0 and out.is_dir():
            reference = tree_bytes(out)
        elif i == w.pool and reference is not None:
            determinism = same_bytes(reference, tree_bytes(out) if out.is_dir() else {})
        shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - t_start
        if len(ops) >= min_ops and elapsed * (len(ops) + 1) / len(ops) > args.seconds:
            break
    wall = time.perf_counter() - t_start
    if tracer is not None:
        tracer.uninstall()
    if determinism is None and reference is not None:   # loop ended before a repeat
        out = workdir / "rerun"
        run_op(cli, w, pool[0], out)
        determinism = same_bytes(reference, tree_bytes(out) if out.is_dir() else {})
    return report(w, args, label, ops, setup, wall, determinism, layers)


def overhead_ratio(ops: list[dict], pool: int) -> float | None:
    """Median over inputs of traced / untraced op seconds (passes 0 and 1)."""
    ratios = [ops[j]["op_s"] / ops[pool + j]["op_s"] for j in range(pool)
              if ops[j]["ok"] and ops[pool + j]["ok"]]
    return statistics.median(ratios) if ratios else None


def report(w: Workload, args, label, ops, setup, wall, determinism, layers) -> int:
    failed = [r for r in ops if not r["ok"]]
    correct = not failed and determinism == []
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "wall_s": wall, "environment": environment(w),
              "determinism_mismatches": determinism, "ops": ops}
    print(f"cymlab bench {w.name} seed {args.seed}: {len(ops)} ops in {wall:.1f} s, "
          f"{len(failed)} failed, byte-determinism "
          + ("ok" if determinism == [] else f"FAILED {determinism}"))
    for r in failed:
        print(f"  failed op on input {r['input']}: {r['class']}: {r['stderr']}")
    print("  environment " + json.dumps(record["environment"]))
    if layers is None:
        e2e = end_to_end(ops, setup)
        record["end_to_end"] = {k: {"value": v, "unit": u, "samples": n, "high_percentile": p}
                                for k, (v, u, n, p) in e2e.items()}
        for k, (v, u, n, p) in e2e.items():
            extra = f", p{p[0]:g} {p[1]:.4g}" if p else ""
            print(f"  {k:<16} {v if v is not None else math.nan:12.6g} {u:<6} "
                  f"({n} samples{extra})")
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in END_TO_END}
    else:
        metrics, table = per_layer(layers, w.pool, overhead_ratio(ops, w.pool))
        record["per_layer"] = metrics
        record["layers"] = table
        print(f"  per op over the first traced pass ({w.pool} ops, op plus verify replay):")
        for k, m in metrics.items():
            v = m["value"] if m["value"] is not None else math.nan
            print(f"  {k:<34} {v:14.6g} {m['unit']}")
        for k, v in table["seconds_per_op"].items():
            print(f"  {k + '.s':<34} {v:14.6g} s")
        for k, v in table["layer_self_seconds_per_op"].items():
            if f"{k}.self_s" not in metrics:
                print(f"  {k + '.self_s':<34} {v:14.6g} s")
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if layers is not None:
        with open(OUT / f"spans_{label}.jsonl", "w") as f:
            for span in layers.spans:
                f.write(json.dumps(span) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
