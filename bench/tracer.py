"""Outside-in tracer for cymlab: spans and counts at layer boundaries.

``Tracer.install()`` rebinds, in every loaded cymlab module namespace and on
the cymlab classes, the public functions and methods of each layer (``cli``,
``config``, ``cwf``, ``theta``, ``cym``, ``solvers``, ``chern``,
``monge_ampere``, ``grids``).  It also wraps the external kernel entry points
cymlab calls: numpy/scipy FFT (layer ``fft``), dense numpy/scipy linear
algebra and the ``scipy.sparse.linalg`` Krylov solvers (layer ``linalg``).
No cymlab source is touched and ``uninstall()`` restores every binding.

Every wrapped call is a span.  Spans are kept in memory as
``(id, parent_id, name, t0, t1)`` and aggregated per name into calls,
inclusive seconds and self seconds (the span minus its child spans).
External entry points are counted only when called from cymlab code, so
scipy's own internal use of numpy does not inflate the counts.

Counts kept next to the spans:

* Krylov solves, the matvecs and preconditioner applies made through the
  operators handed to the solver (wrapped in a counting LinearOperator, so
  the counts hold for any scipy Krylov routine), and each solve's ``info``;
* Newton steps, counted as linear solves (Krylov calls or dense solves) that
  run inside ``solve_vortex``, ``continue_in_alpha`` or ``solve_ma``;
* FFT bytes and flops computed from array shapes (5 N log2 N per complex
  transform of N points, half that for real transforms);
* bytes of the files the ``cwf`` writers and readers touch, except the
  wall-clock ``timings.json``.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np
import numpy.fft
import numpy.linalg
import scipy.fft
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.linalg import LinearOperator, aslinearoperator

LAYERS = ("cli", "config", "cwf", "theta", "cym", "solvers", "chern",
          "monge_ampere", "grids")

_C2C = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
_R2C = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
_DENSE = {
    numpy.linalg: ("solve", "inv", "eig", "eigh", "eigvals", "eigvalsh", "svd",
                   "lstsq", "qr", "cholesky", "det", "slogdet", "pinv"),
    scipy.linalg: ("solve", "inv", "eig", "eigh", "eigvals", "eigvalsh", "svd",
                   "svdvals", "lstsq", "qr", "cholesky", "cho_factor", "cho_solve",
                   "lu", "lu_factor", "lu_solve", "solve_triangular", "schur"),
}
# a dense call that completes one linear solve (factorizations do not count)
_DENSE_SOLVES = ("solve", "lstsq", "lu_solve", "cho_solve")
_KRYLOV = ("gmres", "lgmres", "gcrotmk", "bicgstab", "cg", "cgs", "minres",
           "qmr", "tfqmr", "bicg")

# span names the benchmark reports under a shorter alias
ALIASES = {"solvers.adjoint_min_singular_value": "solvers.certificate"}
CWF_WRITERS = ("cwf.write_field", "cwf.dump_json", "cwf.dump_jsonl",
               "cwf.write_profile_csv")
CWF_READERS = ("cwf.read_field",)


class _CountedOperator(LinearOperator):
    """Delegates to ``op`` and counts applied vectors in ``counter[key]``."""

    def __init__(self, op, counter, key):
        super().__init__(op.dtype, op.shape)
        self.op, self.counter, self.key = op, counter, key

    def _matvec(self, x):
        self.counter[self.key] += 1
        return self.op.matvec(x)

    def _rmatvec(self, x):
        self.counter[self.key] += 1
        return self.op.rmatvec(x)

    def _matmat(self, X):
        self.counter[self.key] += X.shape[1]
        return self.op.matmat(X)


def _from_cymlab() -> bool:
    """Whether the caller of the wrapper that calls this is cymlab code."""
    return sys._getframe(2).f_globals.get("__name__", "").startswith("cymlab")


@dataclass
class Recording:
    """What the tracer saw between two ``Tracer.take()`` calls."""

    # span name -> [calls, inclusive seconds, self seconds]
    stats: defaultdict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    counts: Counter = field(default_factory=Counter)
    krylov: list = field(default_factory=list)      # one dict per Krylov solve
    spans: list = field(default_factory=list)       # (id, parent id, name, t0, t1)

    def total(self, names, column=1):
        """Sum one stats column (0 calls, 1 s, 2 self s) over span names: a
        tuple of names, or one name that also matches its dotted children."""
        if isinstance(names, str):
            names = [n for n in self.stats if n == names or n.startswith(names + ".")]
        return sum(self.stats[n][column] for n in names if n in self.stats)

    def layer_self_seconds(self) -> dict:
        out = defaultdict(float)
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return dict(out)


class Tracer:
    def __init__(self):
        self._patches = []          # (owner, attribute, original)
        self.rec = Recording()
        self.keep_spans = True      # aggregate stats are kept either way
        self._stack = []            # [id, name, t0, child seconds]
        self._active = Counter()    # open spans by name
        self._next_id = 0

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def take(self) -> Recording:
        """Hand over the recording so far and start an empty one."""
        rec, self.rec = self.rec, Recording()
        return rec

    # -- spans ----------------------------------------------------------------

    def _push(self, name):
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1
        self._active[name] += 1

    def _pop(self):
        t1 = time.perf_counter()
        sid, name, t0, child = self._stack.pop()
        self._active[name] -= 1
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        st = self.rec.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self.keep_spans:
            self.rec.spans.append((sid, parent[0] if parent else None, name, t0, t1))

    def _wrap(self, fn, name, call=None, external=False):
        """Span-recording stand-in for fn; call(fn, args, kwargs) adds counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if external and not _from_cymlab():
                return fn(*args, **kwargs)
            tracer._push(name)
            try:
                return fn(*args, **kwargs) if call is None else call(fn, args, kwargs)
            finally:
                tracer._pop()

        return wrapper

    # -- counting hooks ---------------------------------------------------------

    def _linear_solve(self):
        if self._active["solvers.solve_vortex"]:
            self.rec.counts["solvers.vortex.newton_steps"] += 1
        elif self._active["solvers.continue_in_alpha"]:
            self.rec.counts["solvers.corrector.newton_steps"] += 1
        if self._active["monge_ampere.solve_ma"]:
            self.rec.counts["monge_ampere.newton_steps"] += 1

    def _fft_call(self, kind, per_point, fn, args, kwargs):
        """kind is the transform rank (1, 2, or 3 for n-D); numpy and scipy.fft
        share the positional layout (input, n or s, axis or axes)."""
        out = fn(*args, **kwargs)
        a = np.asarray(args[0] if args else kwargs["a" if "a" in kwargs else "x"])
        axes = kwargs.get("axis" if kind == 1 else "axes", args[2] if len(args) > 2 else None)
        if axes is None:
            s = kwargs.get("s", args[1] if len(args) > 1 else None)
            last = 1 if kind == 1 else 2 if kind == 2 else len(s) if s is not None else out.ndim
            axes = range(out.ndim - last, out.ndim)
        elif kind == 1:
            axes = (axes,)
        points = math.prod(max(a.shape[ax], out.shape[ax]) for ax in axes)
        batch = out.size // math.prod(out.shape[ax] for ax in axes)
        self.rec.counts["fft.flop_computed"] += per_point * points * math.log2(max(points, 2)) * batch
        self.rec.counts["fft.bytes_computed"] += a.nbytes + out.nbytes
        return out

    def _dense_solve_call(self, fn, args, kwargs):
        self._linear_solve()
        return fn(*args, **kwargs)

    def _krylov_call(self, name, fn, args, kwargs):
        args = list(args)
        A = args[0] if args else kwargs["A"]
        counter = Counter()
        counted = _CountedOperator(aslinearoperator(A), counter, "matvecs")
        if args:
            args[0] = counted
        else:
            kwargs["A"] = counted
        if kwargs.get("M") is not None:
            kwargs["M"] = _CountedOperator(aslinearoperator(kwargs["M"]), counter,
                                           "precond_applies")
        self._linear_solve()
        scope = next((s[1] for s in reversed(self._stack) if s[1] in (
            "solvers.solve_vortex", "solvers.continue_in_alpha", "monge_ampere.solve_ma")),
            None)
        t0 = time.perf_counter()
        x, info = fn(*args, **kwargs)
        self.rec.krylov.append({
            "solver": name, "size": int(np.size(x)), "scope": scope,
            "matvecs": counter["matvecs"], "precond_applies": counter["precond_applies"],
            "info": int(info), "s": time.perf_counter() - t0})
        self.rec.counts["linalg.krylov.solves"] += 1
        self.rec.counts["linalg.krylov.matvecs"] += counter["matvecs"]
        self.rec.counts["linalg.krylov.precond_applies"] += counter["precond_applies"]
        self.rec.counts["linalg.krylov.failed"] += int(info != 0)
        return x, info

    def _cwf_call(self, key, fn, args, kwargs):
        out = fn(*args, **kwargs)
        path = args[0] if args else kwargs["path"]
        # the wall-clock sidecar changes length from run to run; leave it out
        # so the byte counts repeat exactly
        if os.path.basename(path) != "timings.json":
            self.rec.counts[key] += os.path.getsize(path)
        return out

    # -- install / uninstall ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        swap = {}                                   # id(original) -> wrapper
        for short in LAYERS:
            mod = importlib.import_module(f"cymlab.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    name = ALIASES.get(f"{short}.{attr}", f"{short}.{attr}")
                    call = None
                    if name in CWF_WRITERS:
                        call = functools.partial(self._cwf_call, "cwf.write.bytes")
                    elif name in CWF_READERS:
                        call = functools.partial(self._cwf_call, "cwf.read.bytes")
                    swap[id(obj)] = (obj, self._wrap(obj, name, call))
                elif isinstance(obj, type):
                    for m, f in list(vars(obj).items()):
                        if not m.startswith("_") and isinstance(f, types.FunctionType):
                            self._set(obj, m, self._wrap(f, f"{short}.{m}"))
        for pkg in (numpy.fft, scipy.fft):
            for fname in _C2C + _R2C:
                kind = 3 if fname.endswith("n") else 2 if fname.endswith("2") else 1
                self._external(swap, pkg, fname, f"fft.{fname}", functools.partial(
                    self._fft_call, kind, 5.0 if fname in _C2C else 2.5))
        for pkg, names in _DENSE.items():
            for fname in names:
                call = self._dense_solve_call if fname in _DENSE_SOLVES else None
                self._external(swap, pkg, fname, f"linalg.dense.{fname}", call)
        for fname in _KRYLOV:
            self._external(swap, scipy.sparse.linalg, fname, f"linalg.krylov.{fname}",
                           functools.partial(self._krylov_call, fname))
        for modname, mod in list(sys.modules.items()):
            if modname == "cymlab" or modname.startswith("cymlab."):
                for attr, obj in list(vars(mod).items()):
                    hit = swap.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._set(mod, attr, hit[1])

    def _external(self, swap, pkg, fname, name, call):
        fn = getattr(pkg, fname, None)
        if fn is None:
            return
        wrapper = self._wrap(fn, name, call, external=True)
        swap[id(fn)] = (fn, wrapper)
        self._set(pkg, fname, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
