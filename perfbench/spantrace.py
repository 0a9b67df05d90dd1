"""In-memory span tracer that wraps public sketchlsq functions.

The library's modules bind each other's functions by name (``from .dense
import householder_reduce``), so wrapping a function in its defining module
alone would miss most calls.  ``Tracer.install`` therefore replaces the
function object in every loaded ``sketchlsq`` namespace that binds it, and
``Tracer.uninstall`` puts the originals back.

A target that no longer exists is skipped and listed in ``Tracer.missing``;
its metrics read 0, so a later change may delete a traced function without
editing the benchmark.

Each call records one span ``[name, parent, op, meta, start, end, error]``.
``parent`` is the index of the enclosing span (-1 at the top), ``op`` the
operation id set by the caller, ``meta`` a small shape tuple used by the
flop models in ``layers.py``, and ``error`` the exception class name when
the call raised.
"""

import functools
import importlib
import sys
import time
from contextlib import contextmanager

PACKAGE = "sketchlsq"

NAME = 0
PARENT = 1
OP = 2
META = 3
START = 4
END = 5
ERROR = 6


def _k(rhs):
    return 1 if getattr(rhs, "ndim", 1) == 1 else rhs.shape[1]


def _shape(a, *args, **kwargs):
    return tuple(a.shape)


def _square_rhs(a, rhs, *args, **kwargs):
    return (a.shape[0], _k(rhs))


def _level(*args, level=None, **kwargs):
    # build_preconditioner(a, d_factor, transform, level, seed)
    level = args[3] if level is None and len(args) > 3 else level
    return getattr(level, "name", "binary64" if level is None else None)


def _qr_level(a, level, *args, **kwargs):
    return (tuple(a.shape), level.name)


def _sketch(op, a, *args, **kwargs):
    return (op.m, op.m_pad, op.d, op.transform, a.shape[1], a.dtype.itemsize)


# (module, function, meta extractor).  The list is fixed on purpose: the
# benchmark must keep measuring the same layers while the library changes.
TARGETS = [
    ("dense", "condition_diagnostics", None),
    ("dense", "jacobi_singular_values", None),
    ("dense", "householder_reduce", _shape),
    ("dense", "householder_qr", _shape),
    ("dense", "triangular_solve", _square_rhs),
    ("dense", "cholesky_solve", _square_rhs),
    ("dense", "lu_solve", _square_rhs),
    ("solvers", "algorithm1_pipeline", None),
    ("solvers", "prepare_preconditioner", None),
    ("solvers", "build_preconditioner", _level),
    ("solvers", "precondition_matrix", None),
    ("solvers", "solve_pne", _shape),
    ("solvers", "solve_hpne", None),
    ("solvers", "solve_qr_baseline", None),
    ("solvers", "solve_normal", None),
    ("solvers", "solve_seminormal", None),
    ("precision", "decide_precision", None),
    ("precision", "round_to_precision", None),
    ("precision", "qr_in_precision", _qr_level),
    ("sketch", "make_sketch", None),
    ("sketch", "apply_sketch", _sketch),
    ("probgen", "generate_problem", None),
    ("rng", "stream", None),
    ("bounds", "measure_problem", None),
    ("bounds", "measure_bound_inputs", None),
    ("bounds", "bound_ls", None),
    ("bounds", "bound_ne_family", None),
    ("bounds", "bound_pne", None),
    ("bounds", "bound_hpne", None),
    ("bounds", "bound_notnormal", None),
    ("harness", "run_sweep", None),
]


class Tracer:
    """Records spans for calls into the wrapped functions while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = list(targets)
        self.spans = []
        self.missing = []
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, meta_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            meta = None
            if meta_fn is not None:
                try:
                    meta = meta_fn(*args, **kwargs)
                except (AttributeError, IndexError, TypeError):
                    meta = None
            with self.span(name, meta) as rec:
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    rec[ERROR] = type(exc).__name__
                    raise

        return wrapper

    def install(self):
        """Wrap every target in every loaded namespace of the package."""
        if self._patches:
            return
        self.missing = []
        namespaces = [mod for key, mod in list(sys.modules.items())
                      if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, fn_name, meta_fn in self.targets:
            name = f"{mod_name}.{fn_name}"
            try:
                home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.missing.append(name)
                continue
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, meta_fn)
            for ns in namespaces:
                if getattr(ns, fn_name, None) is original:
                    self._patches.append((ns, fn_name, original))
                    setattr(ns, fn_name, wrapper)

    def uninstall(self):
        """Restore every replaced binding."""
        while self._patches:
            ns, fn_name, original = self._patches.pop()
            setattr(ns, fn_name, original)

    @contextmanager
    def span(self, name, meta=None):
        """Record a span around the enclosed code; yields its record."""
        rec = [name, self._stack[-1] if self._stack else -1, self.op, meta,
               0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous, so children of one span never overlap and their
    summed durations are the part of the parent's interval they cover.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]
