"""Spans around the public functions of every ``covrep`` module, recorded
from outside the library.

``Tracer.install`` replaces each traced function or method with a wrapper
at every place it is bound: modules import helpers by name (``from
._linalg import op_norm``), so the module attribute is swapped in every
``covrep`` module that holds the same object, and methods and properties
are swapped on their class.  Spans stay in memory as (name, start, end,
parent, op) tuples and are written out once the run ends.  Self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
from time import perf_counter

#: module -> traced public functions and methods ("Class.method"; "init" is
#: ``__init__``).  ``reporting`` and ``errors`` only hold records.
TRACED = {
    "_linalg": (
        "op_norm", "scale_of", "herm_residual", "min_eig_herm", "gram_quotient", "orth_cols",
        "null_cols", "solve_hermitian", "inv_sqrt_psd", "sqrt_psd", "kron",
    ),
    "algebra": ("validate_representation",),
    "correspondence": (
        "internal_tensor", "interior_tensor_with_rep", "validate_correspondence",
        "HilbertTower.factor", "HilbertTower.tensor_op", "HilbertTower.mid_op_at",
        "ChainTower.prepend", "ChainTower.flip_at", "FockHilbert.creation",
    ),
    "covrep": (
        "CovariantRep.init", "CovariantRep.tilde_n", "CovariantRep.L", "CovariantRep.P",
        "CovariantRep.left_invertible", "CovariantRep.check_concave", "CovariantRep.check_shimorin",
        "CovariantRep.cauchy_dual", "CovariantRep.restrict", "CovariantRep.build_U",
    ),
    "wold": (
        "wold_decompose", "h_infinity", "invariant_closure", "script_L_n", "Subspace.intersect",
        "verify_muhly_solel", "verify_richter", "verify_cauchy_dual_props", "verify_ker_Ln",
    ),
    "product": (
        "ProductRep.init", "ProductRep.check_doubly_commuting", "wandering_alpha",
        "alpha_translates", "script_L_alpha", "verify_T22", "verify_T24_equivalence", "verify_P21",
    ),
    "examples": ("graph_induced", "induced_product_representation", "two_colored_system", "scalar_covrep"),
    "serialize": ("load_instance", "instance_to_json", "dump_json"),
    "cli": ("main",),
}

#: the per-layer metrics reported from the traced run, as (span, kind)
REPORTED = {
    "_linalg": [
        ("op_norm", "calls"), ("op_norm", "self_s"), ("scale_of", "self_s"),
        ("herm_residual", "self_s"), ("min_eig_herm", "self_s"), ("gram_quotient", "calls"),
        ("gram_quotient", "self_s"), ("orth_cols", "self_s"), ("null_cols", "self_s"),
        ("solve_hermitian", "calls"), ("kron", "self_s"),
    ],
    "algebra": [("validate_representation", "calls"), ("validate_representation", "self_s")],
    "correspondence": [
        ("internal_tensor", "calls"), ("internal_tensor", "self_s"),
        ("interior_tensor_with_rep", "calls"), ("interior_tensor_with_rep", "self_s"),
        ("validate_correspondence", "self_s"), ("HilbertTower.factor", "calls"),
        ("HilbertTower.factor", "self_s"), ("HilbertTower.tensor_op", "calls"),
        ("HilbertTower.tensor_op", "self_s"), ("HilbertTower.mid_op_at", "self_s"),
        ("ChainTower.prepend", "self_s"), ("ChainTower.flip_at", "self_s"),
        ("FockHilbert.creation", "self_s"),
    ],
    "covrep": [
        ("CovariantRep.init", "calls"), ("CovariantRep.init", "self_s"),
        ("CovariantRep.tilde_n", "self_s"), ("CovariantRep.L", "calls"), ("CovariantRep.L", "self_s"),
        ("CovariantRep.P", "self_s"), ("CovariantRep.left_invertible", "calls"),
        ("CovariantRep.check_concave", "self_s"), ("CovariantRep.check_shimorin", "self_s"),
        ("CovariantRep.cauchy_dual", "self_s"), ("CovariantRep.restrict", "calls"),
        ("CovariantRep.restrict", "self_s"), ("CovariantRep.build_U", "self_s"),
    ],
    "wold": [
        ("wold_decompose", "self_s"), ("h_infinity", "calls"), ("h_infinity", "self_s"),
        ("invariant_closure", "self_s"), ("script_L_n", "calls"), ("script_L_n", "self_s"),
        ("Subspace.intersect", "calls"), ("verify_muhly_solel", "self_s"),
        ("verify_richter", "self_s"), ("verify_cauchy_dual_props", "self_s"),
        ("verify_ker_Ln", "self_s"),
    ],
    "product": [
        ("ProductRep.init", "self_s"), ("ProductRep.check_doubly_commuting", "calls"),
        ("wandering_alpha", "calls"), ("wandering_alpha", "self_s"), ("alpha_translates", "self_s"),
        ("script_L_alpha", "calls"), ("verify_T22", "self_s"),
        ("verify_T24_equivalence", "self_s"), ("verify_P21", "self_s"),
    ],
    "examples": [
        ("graph_induced", "self_s"), ("induced_product_representation", "self_s"),
        ("two_colored_system", "self_s"), ("scalar_covrep", "self_s"),
    ],
    "serialize": [
        ("load_instance", "calls"), ("load_instance", "self_s"),
        ("instance_to_json", "self_s"), ("dump_json", "self_s"),
    ],
    "cli": [("main", "calls"), ("main", "self_s")],
}

#: metrics computed by hooks rather than from span timing
HOOK_METRICS = (
    ("linalg.decomp_gflop", "gflop_computed"),
    ("linalg.max_decomp_dim", "count"),
    ("correspondence.internal_tensor.max_positivity_dim", "count"),
    ("correspondence.internal_tensor.keep_ratio", "ratio"),
    ("correspondence.interior_tensor_with_rep.keep_ratio", "ratio"),
    ("serialize.bytes_read", "B"),
    ("serialize.bytes_written", "B"),
)


def _shape(a):
    shape = getattr(a, "shape", None)
    if shape is None:
        import numpy as np

        shape = np.shape(a)
    return tuple(int(x) for x in shape)


# Standard dense flop counts (Golub & Van Loan), real flops for complex data
# (one complex multiply-add = 4 real multiply-adds).  Integer arithmetic keeps
# the totals exact, so they repeat from run to run.


def _svd_values(m, n):
    p, q = max(m, n), min(m, n)
    return 4 * (4 * p * q * q - (4 * q ** 3) // 3)


def _svd_thin(m, n):
    p, q = max(m, n), min(m, n)
    return 4 * (14 * p * q * q + 8 * q ** 3)


def _svd_full(m, n):
    p, q = max(m, n), min(m, n)
    return 4 * (4 * p * p * q + 8 * p * q * q + 9 * q ** 3)


def _eigvalsh(n):
    return 4 * ((4 * n ** 3) // 3)


def _eigh(n):
    return 4 * 9 * n ** 3


def _solve(n, k):
    return 4 * ((2 * n ** 3) // 3 + 2 * n * n * k)


def _decomp_flops(name, args):
    """Flops of the one LAPACK decomposition an entry point runs on its input."""
    shape = _shape(args[0])
    if len(shape) != 2 or 0 in shape:
        return 0, shape
    m, n = shape
    if name == "op_norm":
        return _svd_values(m, n), shape
    if name == "orth_cols":
        return _svd_thin(m, n), shape
    if name == "null_cols":
        return _svd_full(m, n), shape
    if name == "min_eig_herm":
        return _eigvalsh(n), shape
    if name in ("gram_quotient", "inv_sqrt_psd", "sqrt_psd"):
        return _eigh(n), shape
    if name == "solve_hermitian":
        b = _shape(args[1])
        return _solve(n, b[1] if len(b) == 2 else 1), shape
    raise KeyError(name)


DECOMP_ENTRIES = ("op_norm", "min_eig_herm", "gram_quotient", "orth_cols", "null_cols",
                  "solve_hermitian", "inv_sqrt_psd", "sqrt_psd")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.flops = 0
        self.max_decomp_dim = 0
        self.max_positivity_dim = 0
        self.keep = {"internal_tensor": [0, 0], "interior_tensor_with_rep": [0, 0]}
        self.bytes_read = 0
        self.bytes_written = 0
        self._patches: list = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, span: str, before=None, after=None):
        name_id = len(self.names)
        self.names.append(span)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self.op)
            if after is not None:
                after(args, out)
            return out

        return functools.wraps(fn)(traced)

    def _hooks(self, module: str, qual: str):
        if module == "_linalg" and qual in DECOMP_ENTRIES:
            def before(args):
                flops, shape = _decomp_flops(qual, args)
                self.flops += flops
                if flops:
                    self.max_decomp_dim = max(self.max_decomp_dim, *shape)
            return before, None
        if qual == "internal_tensor":
            def before(args):
                E, F = args[0], args[1]
                if E.dim * F.dim:
                    self.max_positivity_dim = max(
                        self.max_positivity_dim, E.dim * F.dim * E.algebra.faithful_dim)

            def after(args, out):
                acc = self.keep[qual]
                acc[0] += out[1].quotient_dim
                acc[1] += args[0].dim * args[1].dim
            return before, after
        if qual == "interior_tensor_with_rep":
            def after(args, out):
                acc = self.keep[qual]
                acc[0] += out.quotient_dim
                acc[1] += args[0].dim * args[1].hilbert_dim
            return None, after
        if qual == "load_instance":
            def before(args):
                self.bytes_read += os.path.getsize(args[0])
            return before, None
        if qual == "dump_json":
            def after(args, out):
                self.bytes_written += len(out)
            return None, after
        return None, None

    def install(self):
        """Swap every traced function for its wrapper, at every binding site.
        The wrappers are made on the first call; later calls reuse them."""
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every binding site."""
        patches = []
        mods = [m for key, m in list(sys.modules.items())
                if (key == "covrep" or key.startswith("covrep.")) and m is not None]
        for module, quals in TRACED.items():
            mod = sys.modules[f"covrep.{module}"]
            for qual in quals:
                span = f"{module}.{qual}"
                before, after = self._hooks(module, qual)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name)
                    attr = "__init__" if attr == "init" else attr
                    orig = owner.__dict__[attr]
                    if isinstance(orig, property):
                        new = property(self._wrap(orig.fget, span, before, after), orig.fset, orig.fdel, orig.__doc__)
                    else:
                        new = self._wrap(orig, span, before, after)
                    patches.append((owner, attr, orig, new))
                    continue
                orig = getattr(mod, qual)
                new = self._wrap(orig, span, before, after)
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            patches.append((m, key, orig, new))
        return patches

    # -- results ----------------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, total self time)."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {name: [0, 0.0] for name in self.names}
        for idx, (name_id, t0, t1, _, _) in enumerate(self.spans):
            acc = out[self.names[name_id]]
            acc[0] += 1
            acc[1] += (t1 - t0) - child[idx]
        return out

    def metrics(self, ops: int) -> dict:
        """Every per-layer metric, with calls, self time, flops and bytes per op.

        Metric names start with the module name without its leading
        underscore (``linalg.op_norm.calls`` for ``_linalg.op_norm``).
        """
        per = self.self_times()
        out = {}
        for module, entries in REPORTED.items():
            prefix = module.lstrip("_")
            for qual, kind in entries:
                calls, self_s = per[f"{module}.{qual}"]
                if kind == "calls":
                    out[f"{prefix}.{qual}.calls"] = {"value": calls / ops, "unit": "count"}
                else:
                    out[f"{prefix}.{qual}.self_s"] = {"value": self_s / ops, "unit": "s"}
            total = sum(per[f"{module}.{q}"][1] for q in TRACED[module])
            out[f"{prefix}.self_s"] = {"value": total / ops, "unit": "s"}
        ratio = lambda acc: acc[0] / acc[1] if acc[1] else 0.0  # noqa: E731
        hooks = {
            "linalg.decomp_gflop": self.flops / 1e9 / ops,
            "linalg.max_decomp_dim": self.max_decomp_dim,
            "correspondence.internal_tensor.max_positivity_dim": self.max_positivity_dim,
            "correspondence.internal_tensor.keep_ratio": ratio(self.keep["internal_tensor"]),
            "correspondence.interior_tensor_with_rep.keep_ratio": ratio(self.keep["interior_tensor_with_rep"]),
            "serialize.bytes_read": self.bytes_read / ops,
            "serialize.bytes_written": self.bytes_written / ops,
        }
        for name, unit in HOOK_METRICS:
            out[name] = {"value": hooks[name], "unit": unit}
        return out

    def write(self, path):
        """Spans as gzip'd CSV: name, start_s, end_s, parent_index, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            names = self.names
            for name_id, t0, t1, parent, op in self.spans:
                fh.write(f"{names[name_id]},{t0:.9f},{t1:.9f},{parent},{op}\n")
