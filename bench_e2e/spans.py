"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side: ``install`` replaces each
layer's public functions with wrappers, patching every module that binds
the name (``from x import y`` callers such as suites -> hom_j keep their
own reference, so a patch of the defining module alone would miss them).  Nothing in the package
changes.  A span has a name, start, end and parent; spans are kept in flat
arrays and written out once, after the run.

A wrapper whose span name is already open on the stack calls straight
through, so recursion and same-layer nesting (``hom_j`` building its two
halves, ``pi_psp`` asking ``pi_sp``) count once, at the outermost call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[list] = []          # [span index, child time]
        self._open: Counter = Counter()
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.hom_keys: set = set()

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def enclosing_name(self) -> str | None:
        """Name of the span around the innermost open one."""
        if len(self._stack) < 2:
            return None
        return self.names[self.name_id[self._stack[-2][0]]]

    def open(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self._stack.append([len(self.start), 0.0])
        self._open[name] += 1
        self.start.append(time.perf_counter())
        self.end.append(0.0)

    def close(self) -> None:
        now = time.perf_counter()
        idx, child = self._stack.pop()
        self.end[idx] = now
        name = self.names[self.name_id[idx]]
        self._open[name] -= 1
        duration = now - self.start[idx]
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def write(self, path) -> None:
        """Write every span as one JSON object of parallel columns.

        Span k is named names[name[k]], ran from start[k] to end[k]
        (perf_counter seconds) and was opened inside span parent[k], or
        at the top when that is -1.  Columns go out one at a time, so a
        run of a million spans needs no second copy of all of them.
        """
        with open(path, "w") as fh:
            fh.write('{"names": ' + json.dumps(self.names))
            for key, column in (("name", self.name_id), ("parent", self.parent),
                                ("start", self.start), ("end", self.end)):
                fh.write(f', "{key}": ' + json.dumps(column.tolist()))
            fh.write("}\n")


def _spanned(tracer: Tracer, name: str, fn, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.is_open(name):
            return fn(*args, **kwargs)
        tracer.open(name)
        try:
            out = fn(*args, **kwargs)
            if note is not None:
                note(tracer, args, out)
            return out
        finally:
            tracer.close()
    return wrapper


# -- counters taken inside the span they describe ----------------------------

def _raise_max(tr, metric, value):
    if value > tr.maxima[metric]:
        tr.maxima[metric] = value


def _note_kernel(tr, args, out):
    _, _, n, k, m = args
    tr.counts["kernels.entry_mults"] += n * k * m
    if out:
        _raise_max(tr, "kernels.max_num_bits",
                   max(max(out).bit_length(), min(out).bit_length()))


def _note_det(tr, args, out):
    _raise_max(tr, "matrix.det.max_n", args[0].rows)
    if tr.enclosing_name() == "groups.random_so":
        tr.counts["groups.random_so.attempts"] += 1


def _note_inverse(tr, args, out):
    _raise_max(tr, "matrix.inverse.max_n", args[0].rows)


def _note_snf(tr, args, out):
    _raise_max(tr, "intmatrix.snf.max_dim", max(args[0].rows, args[0].cols))


def _hom_key(h):
    if hasattr(h, "candidates"):
        return tuple(_hom_key(c) for _, c in h.candidates)
    return (h.source.factors, h.target.factors, tuple(h.matrix.data))


def _note_hom(tr, args, out):
    tr.hom_keys.add(_hom_key(out))


def _note_cases(suite):
    def note(tr, args, out):
        tr.counts[f"suites.{suite}.cases"] += out.cases
    return note


# -- what to patch -------------------------------------------------------------
# (span name, defining module, function, counter taken inside the span)

_GROUP_OPS = ("symplectic_gram", "symplectic_blocks", "direct_sum_sp", "r_fold_sum_sp",
              "stabilization", "stabilization_sj", "perm_pj", "verify_sj_conjugation",
              "doubling", "tensor_sp_o", "perm_pmn", "verify_l_conjugation",
              "verify_mixed_product", "random_gl")
_HOMS = ("hom_direct_sum", "hom_r_fold", "hom_doubling", "hom_tensor_sp_o",
         "hom_tensor_quotient", "hom_tensor_sp_sp", "hom_square_tensor", "hom_ttilde",
         "hom_j")
_LOOKUPS = ("pi_sp", "pi_psp", "pi_so", "pi_o", "pi_u_gl", "pi_classifying", "pi_table")

FUNCTIONS = [
    ("kernels", "kernels", "matmul_num", _note_kernel),
    ("matrix.block", "matrix", "block_matrix", None),
    ("groups.random_so", "groups", "random_so", None),
    ("groups.random_sp", "groups", "random_sp", None),
    ("groups.membership", "groups", "is_symplectic", None),
    ("groups.membership", "groups", "is_orthogonal", None),
    ("groups.tensor_sp_sp", "groups", "tensor_sp_sp", None),
    ("groups.change_of_basis_p", "groups", "change_of_basis_p", None),
    *[("groups.ops", "groups", f, None) for f in _GROUP_OPS],
    ("intmatrix.snf", "intmatrix", "smith_normal_form", _note_snf),
    *[("induced.hom", "induced", f, _note_hom) for f in _HOMS],
    ("induced.iso", "induced", "is_isomorphism", None),
    *[("homotopy", "homotopy", f, None) for f in _LOOKUPS],
    ("lifting.connectivity", "lifting", "connectivity_j", None),
    ("lifting.bezout", "lifting", "bezout_uv", None),
    ("lifting.decide", "lifting", "decide_azumaya", None),
    ("lifting.decide", "lifting", "decide_bundle", None),
    ("lifting.postnikov", "lifting", "postnikov_degree_check", None),
    ("suites", "suites", "run_suite", None),
]

METHODS = [
    ("matrix.det", "det", _note_det),
    ("matrix.inverse", "inverse", _note_inverse),
    ("matrix.matmul", "__matmul__", None),
    ("matrix.kron", "kron", None),
]


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Patch every layer entry point; returns (undo list, names not found).

    A name the package no longer defines is skipped and reported, so the
    traced run keeps working across refactors of a single layer.
    """
    undo, missing = [], []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def mod(name):
        return importlib.import_module(f"sympdec.{name}")

    modules = [m for name, m in sys.modules.items()
               if name == "sympdec" or name.startswith("sympdec.")]
    for span, home, attr, note in FUNCTIONS:
        original = getattr(mod(home), attr, None)
        if original is None:
            missing.append(f"{home}.{attr}")
            continue
        wrapped = _spanned(tracer, span, original, note)
        # every module holding the function, the defining one and each
        # ``from x import y`` caller, gets the wrapper
        for module in modules:
            if module.__dict__.get(attr) is original:
                patch(module, attr, wrapped)

    runners = getattr(mod("suites"), "_RUNNERS", {})
    if not runners:
        missing.append("suites._RUNNERS")
    for suite, fn in list(runners.items()):
        undo.append((runners, suite, fn))
        runners[suite] = _spanned(tracer, f"suites.{suite}", fn, _note_cases(suite))

    matrix_cls = getattr(mod("matrix"), "ExactMatrix")
    for span, attr, note in METHODS:
        if attr not in matrix_cls.__dict__:
            missing.append(f"matrix.ExactMatrix.{attr}")
            continue
        patch(matrix_cls, attr, _spanned(tracer, span, matrix_cls.__dict__[attr], note))
    from_rows = matrix_cls.__dict__.get("from_rows")
    if isinstance(from_rows, classmethod):
        patch(matrix_cls, "from_rows",
              classmethod(_spanned(tracer, "matrix.from_rows", from_rows.__func__)))
    else:
        missing.append("matrix.ExactMatrix.from_rows")
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)
