"""Tracing of the monotensor layers, from outside the package.

The tracer wraps public functions of the package from outside, in every
place a caller looks them up: the module namespaces that import them, the
namespace of a module that others import whole (``linalg.trace``), and the
closures of the click commands.  It also wraps ``NCPolynomial.__mul__`` on
the class.  A layer is a module of the package (``words``, ``model``, ...).

Calls within one module are left alone, except for the few functions whose
time a per-layer metric names (``INTRA``).  Spans are kept in memory with
a parent id; sibling calls of one function under one parent share a span
record (calls and time add up), which keeps memory bounded however many
words an expansion touches.  Counts are taken after a span's timer stops,
on a clock that excludes the counting itself, so they add no time to any
span.  ``uninstall`` puts every original back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

#: Functions wrapped also where their own module calls them, because a
#: per-layer metric reports their time.
INTRA = {"build_model", "matrix_power", "word_value"}

MARK = "__perfbench_original__"


class Record:
    __slots__ = ("id", "layer", "name", "parent", "calls", "dur", "errors", "children")

    def __init__(self, rid, layer, name, parent):
        self.id = rid
        self.layer = layer
        self.name = name
        self.parent = parent
        self.calls = 0
        self.dur = 0.0
        self.errors = 0
        self.children = {}


def package_modules(package):
    """The package's submodules by layer name, all imported."""
    mods = {}
    for info in pkgutil.iter_modules(package.__path__):
        mods[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    return mods


class Tracer:
    def __init__(self):
        self.records = []
        self.top = Record(-1, None, None, None)  # parent of the outermost spans
        self.stack = [self.top]
        self.active = False
        self.paused = 0.0
        self.counts = defaultdict(float)
        self.op_sets = defaultdict(set)
        self.op_refs = []
        self._restore = []

    # -- clock and spans -------------------------------------------------

    def now(self):
        return time.perf_counter() - self.paused

    def enter(self, layer, name):
        parent = self.stack[-1]
        rec = parent.children.get(name)
        if rec is None:
            rec = parent.children[name] = Record(len(self.records), layer, name, parent)
            self.records.append(rec)
        self.stack.append(rec)
        return rec

    def leave(self, rec, t0, failed):
        rec.dur += self.now() - t0
        rec.calls += 1
        self.stack.pop()
        if failed and rec.parent.layer != rec.layer:
            rec.errors += 1

    def count(self, counter, rec, args, kwargs, result):
        t = time.perf_counter()
        try:
            counter(self, rec, args, kwargs, result)
        except Exception:  # a counter that no longer fits the code it reads
            self.counts["trace.counter_errors"] += 1
        self.paused += time.perf_counter() - t

    def start_op(self):
        self.op_sets.clear()
        self.op_refs.clear()

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, layer, fn, counter):
        tracer = self
        stack = self.stack
        name = fn.__qualname__
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            rec = parent.children.get(name)
            if rec is None:
                rec = tracer.enter(layer, name)
            else:
                stack.append(rec)
            t0 = clock() - tracer.paused
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.leave(rec, t0, True)
                raise
            rec.dur += clock() - tracer.paused - t0
            rec.calls += 1
            stack.pop()
            if counter is not None:
                tracer.count(counter, rec, args, kwargs, result)
            return result

        setattr(traced, MARK, fn)
        return traced

    def install(self, package):
        mods = package_modules(package)
        layer_of = {mod.__name__: layer for layer, mod in mods.items()}
        targets = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    targets[id(obj)] = (layer, obj)
        imported_whole = {
            layer for layer, mod in mods.items()
            if any(v is mod for other in mods.values() if other is not mod
                   for v in vars(other).values())
        }
        wrappers = {}

        def wrapped(obj):
            layer, fn = targets[id(obj)]
            if id(obj) not in wrappers:
                wrappers[id(obj)] = self._wrapper(layer, fn, COUNTERS.get(fn.__name__))
            return wrappers[id(obj)]

        def wanted(obj, caller_layer):
            if id(obj) not in targets or targets[id(obj)][1] is not obj:
                return False
            layer = targets[id(obj)][0]
            return layer != caller_layer or layer in imported_whole or obj.__name__ in INTRA

        for caller_layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if wanted(obj, caller_layer):
                    setattr(mod, name, wrapped(obj))
                    self._restore.append((setattr, mod, name, obj))
                for cmd in getattr(obj, "commands", {}).values():
                    for cell in getattr(cmd.callback, "__closure__", None) or ():
                        try:
                            inner = cell.cell_contents
                        except ValueError:
                            continue
                        if wanted(inner, layer_of[mod.__name__]):
                            cell.cell_contents = wrapped(inner)
                            self._restore.append((_set_cell, cell, None, inner))
        poly = getattr(mods.get("words"), "NCPolynomial", None)
        if poly is not None:
            original = vars(poly)["__mul__"]
            setattr(poly, "__mul__", self._wrapper("words", original, _count_mul))
            self._restore.append((setattr, poly, "__mul__", original))
        return mods

    def uninstall(self):
        while self._restore:
            setter, holder, name, original = self._restore.pop()
            setter(holder, name, original)


def _set_cell(cell, _name, value):
    cell.cell_contents = value


def leftover_wrappers(package):
    """Places where a tracer wrapper is still installed (empty when clean)."""
    found = []
    for layer, mod in package_modules(package).items():
        for name, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{layer}.{name}")
            if inspect.isclass(obj):
                found += [f"{layer}.{name}.{k}" for k, v in vars(obj).items() if hasattr(v, MARK)]
            for cmd in getattr(obj, "commands", {}).values():
                for cell in getattr(cmd.callback, "__closure__", None) or ():
                    try:
                        if hasattr(cell.cell_contents, MARK):
                            found.append(f"{layer}.{cmd.name} closure")
                    except ValueError:
                        pass
    return found


# -- counters: run after the span, on the paused clock ----------------------


def _bound(args, kwargs, fn_args):
    """Positional-or-keyword arguments by name, for the counters below."""
    out = dict(zip(fn_args, args))
    out.update(kwargs)
    return out


def _count_mul(tracer, rec, args, kwargs, result):
    left, right = args[0], args[1]
    if type(result) is type(left) and type(right) is type(left):
        tracer.counts["words.mul_calls"] += 1
        tracer.counts["words.pairs"] += len(left) * len(right)
        tracer.counts["words.terms_out"] += len(result)


def _moment_counter(kind):
    def counter(tracer, rec, args, kwargs, result):
        from monotensor.words import split_runs
        split_runs = getattr(split_runs, MARK, split_runs)
        a = _bound(args, kwargs, ("p", "data"))
        p, data = a["p"], a["data"]
        tracer.op_refs.append(data)  # keeps id(data) unique within the op
        tracer.counts["moments.terms_evaluated"] += len(p)
        a_words, runs = tracer.op_sets["a_words"], tracer.op_sets["runs"]
        for word in p.terms:
            a_indices, word_runs = split_runs(word)
            a_words.add((id(data), tuple(a_indices)))
            used = word_runs if kind == "monotone" else (
                list(word_runs[1:-1]) + [word_runs[-1] + word_runs[0]])
            for run in used:
                if run:
                    runs.add((id(data), tuple(run)))
    return counter


def _dense_products(dim):
    return 8.0 * dim**3, 16.0 * dim**2  # complex multiply-adds; complex128 bytes


def _count_build(tracer, rec, args, kwargs, result):
    spec = _bound(args, kwargs, ("spec",))["spec"]
    dim = int(result.poly_matrix.shape[0])
    flops, nbytes = _dense_products(dim)
    atoms = sum(len(w) for w in spec.poly.terms)
    terms = len(spec.poly.terms)
    c = tracer.counts
    c["model.max_dim"] = max(c["model.max_dim"], dim)
    c["model.matmul_flops_computed"] += atoms * flops
    # a- and b-representations, identity, accumulator, then per term one
    # product per atom plus the scaled term and the new accumulator.
    arrays = len(spec.a_matrices) + spec.q + 2 + atoms + 2 * terms
    c["model.bytes_alloc_computed"] += arrays * nbytes


def _count_power(tracer, rec, args, kwargs, result):
    a = _bound(args, kwargs, ("m", "k"))
    flops, nbytes = _dense_products(int(a["m"].shape[0]))
    tracer.counts["model.matmul_flops_computed"] += (int(a["k"]) - 1) * flops
    tracer.counts["model.bytes_alloc_computed"] += (int(a["k"]) - 1) * nbytes


def _count_verify(tracer, rec, args, kwargs, result):
    a = _bound(args, kwargs, ("spec", "data", "k_max"))
    flops, nbytes = _dense_products(int(a["spec"].dim))
    k_max = int(a.get("k_max", 5))
    tracer.counts["model.matmul_flops_computed"] += k_max * flops
    tracer.counts["model.bytes_alloc_computed"] += (k_max + 1) * nbytes


def _count_trial(tracer, rec, args, kwargs, result):
    tracer.counts["haar.trials"] += 1


def _count_gaussians(tracer, rec, args, kwargs, result):
    tracer.counts["sampling.gaussians_drawn"] += result.size


def _count_qr(tracer, rec, args, kwargs, result):
    n = int(result.shape[0])
    tracer.counts["linalg.qr_calls"] += 1
    # Householder QR of a complex n x n matrix plus forming Q explicitly.
    tracer.counts["linalg.qr_flops_computed"] += 32.0 / 3.0 * n**3


def _count_report(tracer, rec, args, kwargs, result):
    if isinstance(result, str) and rec.parent.layer != "reports":
        tracer.counts["reports.bytes_out"] += len(result.encode())


COUNTERS = {
    "cyclic_moment": _moment_counter("cyclic"),
    "monotone_moment": _moment_counter("monotone"),
    "build_model": _count_build,
    "matrix_power": _count_power,
    "verify_cyclic": _count_verify,
    "verify_monotone": _count_verify,
    "word_value": _count_trial,
    "complex_gaussians": _count_gaussians,
    "qr_unitary": _count_qr,
    "emit_report": _count_report,
    "render_csv": _count_report,
    "canonical_json": _count_report,
}


def layer_times(tracer):
    """Self time per layer, busy time per layer and per function name.

    A record's self time is its time minus its children's.  Busy time
    counts a record only when no ancestor has the same layer (or name),
    so nested calls are not counted twice.
    """
    self_s, busy, by_name, errors = (defaultdict(float) for _ in range(4))
    for r in tracer.records:
        self_s[r.layer] += r.dur - sum(c.dur for c in r.children.values())
        errors[r.layer] += r.errors
        layers, names = set(), set()
        p = r.parent
        while p is not tracer.top:
            layers.add(p.layer)
            names.add(p.name)
            p = p.parent
        if r.layer not in layers:
            busy[r.layer] += r.dur
        if r.name not in names:
            by_name[r.name] += r.dur
    return self_s, busy, by_name, errors


def span_dump(tracer):
    """The span records as JSON-ready rows."""
    return [
        {"id": r.id, "parent": r.parent.id, "layer": r.layer, "name": r.name,
         "calls": r.calls, "time_s": r.dur,
         "self_s": r.dur - sum(c.dur for c in r.children.values()), "errors": r.errors}
        for r in tracer.records
    ]
