"""Outside-in span tracing of the lralg layers.

The recorder wraps public functions and methods of each layer and
records one span per call: (span name, start, end, parent index).  The
spans of one job form a tree rooted at ``cli.main``; a span's self time
is its duration minus the part its child spans cover, so the self times
of one job add up to the job's wall time.

Names are patched where they are looked up: a module-level function is
replaced in every lralg module that binds it (``from .lie import series``
makes a second binding in ``construct``), and a method is replaced on its
class.  ``linalg`` reaches the kernels through the ``lralg._kernels``
module, so patching that module's attributes covers those calls.
Nothing inside the package is edited; ``uninstall`` restores every name.
"""

from __future__ import annotations

import os
import sys
import time

# layer -> (module, [function names], {class name: [method names]})
TARGETS = {
    "kernels": ("lralg._kernels", ["mat_mul", "rref", "content"], {}),
    "linalg": (
        "lralg.linalg",
        ["kernel", "image", "solve", "subspace_sum", "subspace_intersection",
         "complement", "restrict_operator", "is_nilpotent_operator",
         "fitting_split_single", "fitting_split_family", "rref"],
        {
            "Matrix": ["__init__", "zeros", "identity", "from_rows", "from_columns",
                       "__getitem__", "row", "column", "row_list", "__eq__", "__neg__",
                       "__add__", "__sub__", "__mul__", "__rmul__", "apply", "transpose",
                       "power", "rref", "inverse"],
            "Subspace": ["from_vectors", "zero", "full", "basis_matrix", "reduce",
                         "contains", "coordinates", "contains_subspace",
                         "from_coordinates", "__eq__"],
        },
    ),
    "lie": (
        "lralg.lie",
        ["validate_lie", "ad", "bracket_of_subspaces", "series", "is_two_step_solvable",
         "subalgebra_generated", "quotient", "split_metabelian"],
        {
            "LieAlgebra": ["__init__", "from_brackets", "bracket", "__eq__", "ensure_valid"],
            "SplitDecomposition": ["phi_of"],
        },
    ),
    "lr": (
        "lralg.lr",
        ["left_op", "right_op", "check_lr", "check_complete", "opposite",
         "check_lemma14", "sample_triples", "two_of_three", "product_span",
         "quotient_product"],
        {"Product": ["__init__", "from_entries", "zero", "evaluate", "__eq__"]},
    ),
    "construct": (
        "lralg.construct",
        ["complete_nilpotent", "lift_product", "complete_any", "half_bracket",
         "lr_for_g3", "two_generator_lr"],
        {},
    ),
    "io": ("lralg.io", ["parse_data", "parse_file", "format_algebra", "emit_file"], {}),
    "cli": ("lralg.cli", ["main"], {}),
}

# Spans whose arguments and result the post-processing reads (sizes,
# bit lengths, content keys); the references are dropped after each job.
KEEP = {
    "kernels.mat_mul", "kernels.rref", "lie.validate_lie", "lr.check_lr",
    "construct.two_generator_lr", "io.parse_file", "io.emit_file",
}

_RAISED = object()


class Recorder:
    """Holds the spans of the current job and the names it patched."""

    def __init__(self):
        self.names = []          # span id -> span name
        self.spans = []          # (sid, t0, t1, parent, args, result)
        self.stack = [-1]
        self._saved = []         # (owner, attr, original)
        self.installed = False

    def _wrap(self, fn, name):
        sid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keep = name in KEEP

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            res = _RAISED
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                t1 = clock()
                stack.pop()
                if keep:
                    spans[idx] = (sid, t0, t1, parent, args, res)
                else:
                    spans[idx] = (sid, t0, t1, parent, None, None)

        return traced

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Patch every target; safe to call again after uninstall."""
        if self.installed:
            return
        if not self.names:
            self._build()
        mods = [m for k, m in sorted(sys.modules.items())
                if (k == "lralg" or k.startswith("lralg.")) and m is not None]
        for original, wrapper in self._funcs:
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, attr, wrapper)
        for cls, attr, wrapper in self._methods:
            self._set(cls, attr, wrapper)
        self.installed = True

    def _build(self):
        self._funcs, self._methods = [], []
        for layer, (modname, funcs, classes) in TARGETS.items():
            mod = sys.modules[modname]
            for f in funcs:
                orig = getattr(mod, f)
                self._funcs.append((orig, self._wrap(orig, f"{layer}.{f}")))
            for cname, methods in classes.items():
                cls = getattr(mod, cname)
                for m in methods:
                    raw = cls.__dict__[m]
                    name = f"{layer}.{cname}.{m}"
                    if isinstance(raw, classmethod):
                        wrapper = classmethod(self._wrap(raw.__func__, name))
                    else:
                        wrapper = self._wrap(raw, name)
                    self._methods.append((cls, m, wrapper))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.installed = False

    def take(self):
        """Spans of the job just run; the recorder starts empty again."""
        out = list(self.spans)
        self.spans.clear()
        del self.stack[1:]
        return out


def self_times(spans):
    """Self time of each span: duration minus what its children cover."""
    child = [0.0] * len(spans)
    for sid, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def outer_time(spans, names, sid_names):
    """Summed duration of spans in ``names`` with no ancestor in ``names``."""
    inside = [False] * len(spans)
    total = 0.0
    for idx, (sid, t0, t1, parent, *_) in enumerate(spans):
        hit = sid_names[sid] in names
        up = parent >= 0 and inside[parent]
        inside[idx] = hit or up
        if hit and not up:
            total += t1 - t0
    return total


def _under(spans, sid_names, names):
    """Per span: is it, or is one of its ancestors, in ``names``."""
    inside = [False] * len(spans)
    for idx, (sid, _, _, parent, *_) in enumerate(spans):
        inside[idx] = sid_names[sid] in names or (parent >= 0 and inside[parent])
    return inside


def _bits(x):
    return abs(x).bit_length()


# Per-layer metric -> unit, in report order.
UNITS = {
    "kernels.mat_mul.calls": "count/job", "kernels.mat_mul.s": "s/job",
    "kernels.mat_mul.madds": "madd/job", "kernels.rref.calls": "count/job",
    "kernels.rref.s": "s/job", "kernels.rref.max_bits": "bits",
    "kernels.content.calls": "count/job", "kernels.content.s": "s/job",
    "kernels.share": "ratio",
    "linalg.self_s": "s/job", "linalg.matrix.calls": "count/job",
    "linalg.subspace.calls": "count/job", "linalg.fitting.s": "s/job",
    "linalg.nilpotent.calls": "count/job",
    "lie.validate.calls": "count/job", "lie.validate.unique_frac": "ratio",
    "lie.validate.s": "s/job", "lie.series.calls": "count/job", "lie.series.s": "s/job",
    "lie.bracket_of_subspaces.calls": "count/job", "lie.split.s": "s/job",
    "lie.quotient.s": "s/job",
    "lr.check_lr.calls": "count/job", "lr.check_lr.unique_frac": "ratio",
    "lr.check_lr.s": "s/job", "lr.ops.calls": "count/job", "lr.lemma14.s": "s/job",
    "lr.quotient_product.s": "s/job",
    "construct.two_gen.s": "s/job", "construct.two_gen.subspace_per_dim": "ratio",
    "construct.complete_any.s": "s/job", "construct.complete_nilpotent.s": "s/job",
    "construct.lift.s": "s/job", "construct.self_s": "s/job",
    "io.parse.s": "s/job", "io.emit.s": "s/job", "io.bytes_in": "B/job",
    "io.bytes_out": "B/job",
    "cli.self_s": "s/job",
    "trace.overhead_frac": "ratio",
}

# metric -> span names whose outermost spans it sums (inclusive time).
_INCLUSIVE = {
    "kernels.mat_mul.s": {"kernels.mat_mul"},
    "kernels.rref.s": {"kernels.rref"},
    "kernels.content.s": {"kernels.content"},
    "linalg.fitting.s": {"linalg.fitting_split_family", "linalg.fitting_split_single"},
    "lie.validate.s": {"lie.validate_lie"},
    "lie.series.s": {"lie.series"},
    "lie.split.s": {"lie.split_metabelian"},
    "lie.quotient.s": {"lie.quotient"},
    "lr.check_lr.s": {"lr.check_lr"},
    "lr.lemma14.s": {"lr.check_lemma14"},
    "lr.quotient_product.s": {"lr.quotient_product"},
    "construct.two_gen.s": {"construct.two_generator_lr"},
    "construct.complete_any.s": {"construct.complete_any"},
    "construct.complete_nilpotent.s": {"construct.complete_nilpotent"},
    "construct.lift.s": {"construct.lift_product"},
    "io.parse.s": {"io.parse_file"},
    "io.emit.s": {"io.emit_file"},
}

# metric -> span names whose calls it counts.
_COUNTS = {
    "kernels.mat_mul.calls": lambda n: n == "kernels.mat_mul",
    "kernels.rref.calls": lambda n: n == "kernels.rref",
    "kernels.content.calls": lambda n: n == "kernels.content",
    "linalg.matrix.calls": lambda n: n.startswith("linalg.Matrix."),
    "linalg.subspace.calls": lambda n: n.startswith("linalg.Subspace."),
    "linalg.nilpotent.calls": lambda n: n == "linalg.is_nilpotent_operator",
    "lie.validate.calls": lambda n: n == "lie.validate_lie",
    "lie.series.calls": lambda n: n == "lie.series",
    "lie.bracket_of_subspaces.calls": lambda n: n == "lie.bracket_of_subspaces",
    "lr.check_lr.calls": lambda n: n == "lr.check_lr",
    "lr.ops.calls": lambda n: n in ("lr.left_op", "lr.right_op"),
}

_SELF = {
    "linalg.self_s": "linalg", "construct.self_s": "construct", "cli.self_s": "cli",
}


class Stats:
    """Per-layer totals over the traced jobs of a run."""

    def __init__(self):
        self.jobs = 0
        self.wall = 0.0
        self.sums = dict.fromkeys(UNITS, 0.0)
        self.max_bits = 0
        self.keys = {"lie.validate": set(), "lr.check_lr": set()}
        self.calls = {"lie.validate": 0, "lr.check_lr": 0}
        self.two_gen_dims = 0
        self.two_gen_subspaces = 0
        self.self_sum_err = 0.0
        self.root_gap = 0.0
        self.spans = 0

    def add_job(self, sid_names, spans, wall):
        """Fold one job's span tree into the totals.

        wall is the job's time as the loop measured it; the root span
        (cli.main) covers all of it but the wrapper's own entry and exit,
        and the self times add up to the root span.

        Called between jobs, outside the timed region; the argument and
        result references held by the spans are released here.
        """
        self.jobs += 1
        self.spans += len(spans)
        selfs = self_times(spans)
        self.wall += wall
        root = sum(sp[2] - sp[1] for sp in spans if sp[3] < 0)
        self.self_sum_err = max(self.self_sum_err, abs(sum(selfs) - root) / root)
        self.root_gap = max(self.root_gap, (wall - root) / wall)
        s = self.sums
        names = [sid_names[sp[0]] for sp in spans]
        kernel_time = 0.0
        for name, sp, st in zip(names, spans, selfs):
            layer = name.split(".", 1)[0]
            for metric, pred in _COUNTS.items():
                if pred(name):
                    s[metric] += 1
            if layer == "kernels":
                kernel_time += sp[2] - sp[1]
            metric = next((m for m, lay in _SELF.items() if lay == layer), None)
            if metric:
                s[metric] += st
            args, res = sp[4], sp[5]
            if name == "kernels.mat_mul":
                s["kernels.mat_mul.madds"] += args[2] * args[3] * args[4]
            elif name == "kernels.rref" and isinstance(res, tuple):
                num, den, _ = res
                self.max_bits = max(self.max_bits, _bits(den), max(map(_bits, num), default=0))
            elif name == "lie.validate_lie":
                self.calls["lie.validate"] += 1
                self.keys["lie.validate"].add(hash(args[0].brackets))
            elif name == "lr.check_lr":
                self.calls["lr.check_lr"] += 1
                self.keys["lr.check_lr"].add(hash((args[0].brackets, args[1].table)))
            elif name == "construct.two_generator_lr":
                self.two_gen_dims += args[0].dim
            elif name == "io.parse_file":
                s["io.bytes_in"] += os.path.getsize(args[0])
            elif name == "io.emit_file":
                s["io.bytes_out"] += os.path.getsize(args[0])
        s["kernels.share"] += kernel_time
        under = _under(spans, sid_names, {"construct.two_generator_lr"})
        self.two_gen_subspaces += sum(
            1 for n, u in zip(names, under) if u and n == "linalg.Subspace.from_vectors")
        for metric, group in _INCLUSIVE.items():
            s[metric] += outer_time(spans, group, sid_names)

    def metrics(self, overhead_frac):
        """Per-job means and ratios, with the given tracing overhead."""
        n = max(self.jobs, 1)
        out = {}
        for metric, unit in UNITS.items():
            v = self.sums[metric]
            out[metric] = v / n if unit.endswith("/job") else v
        out["kernels.share"] = self.sums["kernels.share"] / self.wall if self.wall else 0.0
        out["kernels.rref.max_bits"] = self.max_bits
        for key, metric in (("lie.validate", "lie.validate.unique_frac"),
                            ("lr.check_lr", "lr.check_lr.unique_frac")):
            calls = self.calls[key]
            out[metric] = len(self.keys[key]) / calls if calls else 0.0
        out["construct.two_gen.subspace_per_dim"] = (
            self.two_gen_subspaces / self.two_gen_dims if self.two_gen_dims else 0.0)
        out["trace.overhead_frac"] = overhead_frac
        return out
