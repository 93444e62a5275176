"""Outside-in tracer: times calls into ``pai``'s public functions.

The program is not edited. Each traced function is replaced by a wrapper in
every ``pai.*`` module that binds it, because ``from .x import y`` copies the
binding (``pai.generators.derive_rng`` is the same object as
``pai.streams.derive_rng``, and patching only one of them would miss calls).
The transport classes' ``forward``/``inverse`` methods are patched on the
classes.

Spans nest on one thread, so a stack gives each span's self time exactly:
its duration minus the time its child spans cover. Spans are recorded only
inside an op (a root span the harness opens), so the harness's own input
generation and checks are never attributed to a layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name). Several functions may share a span name.
TRACED_FUNCTIONS = (
    ("streams", "derive_rng", "streams.derive_rng"),
    ("generators", "pass_synthesize", "generators.pass_synthesize"),
    ("generators", "fit_gaussian", "generators.fit"),
    ("generators", "fit_copula", "generators.fit"),
    ("generators", "load_model", "generators.load_model"),
    ("generators", "save_model", "generators.save_model"),
    ("perturb", "perturb", "perturb.perturb"),
    ("halton", "halton_block", "halton.halton_block"),
    ("assignment", "rank_cost_matrix", "assignment.rank_cost_matrix"),
    ("assignment", "solve_lsap", "assignment.solve_lsap"),
    ("ranks", "empirical_ranks", "ranks.empirical_ranks"),
    ("ranks", "match_ranks", "ranks.match_ranks"),
    ("metrics", "fid", "metrics.fid"),
    ("metrics", "gaussian_summary", "metrics.gaussian_summary"),
    ("empirical", "p_value", "empirical.p_value"),
    ("inference", "test_two_sample_fid", "inference.test_two_sample_fid"),
    ("inference", "test_feature_significance", "inference.test_feature_significance"),
    ("inference", "test_conditional_coherence", "inference.test_conditional_coherence"),
    ("inference", "pivotal_inference", "inference.pivotal_inference"),
    ("predict", "conditional_sample", "predict.conditional_sample"),
    ("predict", "conformal_fit", "predict.conformal_fit"),
    ("predict", "conformal_interval", "predict.conformal_interval"),
    ("predict", "run_prediction_study", "predict.run_prediction_study"),
    ("dataio", "read_matrix", "dataio.read_matrix"),
    ("dataio", "write_matrix", "dataio.write_matrix"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name)
TRACED_METHODS = tuple(
    ("generators", cls, method, f"generators.{method}")
    for cls in ("GaussianTransport", "CopulaTransport")
    for method in ("forward", "inverse")
)

MODULES = sorted({m for m, _, _ in TRACED_FUNCTIONS} | {m for m, _, _, _ in TRACED_METHODS})

# Span name of the op root; its self time is harness time outside every layer.
OP_SPAN = "op"

# Spans of this many ops are kept whole and written out; the rest are only
# aggregated, so a long traced run keeps bounded memory.
KEPT_OPS = 3


def _bound_arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _array_key(array) -> bytes:
    array = np.ascontiguousarray(array, dtype=np.float64)
    digest = hashlib.sha1(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.digest()


class Tracer:
    """Records spans and boundary counters while :meth:`install`-ed."""

    def __init__(self):
        from pai.streams import PATH_CONDITIONAL, PATH_PASS, PATH_SIMULATE, PATH_SPLIT, PATH_TRUTH

        self._tags = {
            PATH_PASS: "pass",
            PATH_CONDITIONAL: "conditional",
            PATH_SIMULATE: "simulate",
            PATH_SPLIT: "split",
            PATH_TRUTH: "truth",
        }
        self._stack = []          # open spans: [name, start, child_time, span_id]
        self._patches = []        # (owner, attribute, original)
        self._next_id = 0
        self._op = None
        self._aggregate = {}
        self.op_aggregates = []   # per op: {name: [calls, self_s, total_s]}
        self.spans = []           # (span_id, name, start, end, parent_id, op) of kept ops
        self.errors = defaultdict(int)    # module -> exceptions escaping its spans
        self.counters = defaultdict(float)
        self.tag_calls = defaultdict(int)
        self.max_n = 0
        self._seen = defaultdict(set)     # span name -> input keys seen this run
        self.repeats = defaultdict(int)
        self._counter_hooks = {
            "streams.derive_rng": self._count_derive_rng,
            "halton.halton_block": self._count_halton,
            "assignment.rank_cost_matrix": self._count_cost_matrix,
            "assignment.solve_lsap": self._count_lsap,
            "ranks.empirical_ranks": self._count_ranks,
            "dataio.read_matrix": self._count_read,
            "dataio.write_matrix": self._count_write,
            "cli.main": self._count_cli,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"pai.{name}") for name in MODULES}
        for module_name, attribute, span_name in TRACED_FUNCTIONS:
            original = getattr(modules[module_name], attribute)
            wrapper = self._wrap(original, span_name)
            for module in list(sys.modules.values()):
                if module is None or not (module.__name__ == "pai" or module.__name__.startswith("pai.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, method, span_name in TRACED_METHODS:
            cls = getattr(modules[module_name], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, fn, name):
        module = name.split(".", 1)[0]
        hook = self._counter_hooks.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(clock())
                self.errors[module] += 1
                raise
            duration = self._close(clock())
            if hook is not None:
                hook(args, kwargs, result, duration)
            return result

        return functools.wraps(fn)(traced)

    # -- spans ----------------------------------------------------------------

    def _close(self, end: float) -> float:
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        else:
            parent = None
        entry = self._aggregate.get(name)
        if entry is None:
            entry = self._aggregate[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration - child
        entry[2] += duration
        if self._op < KEPT_OPS:
            self.spans.append((span_id, name, start, end, parent, self._op))
        return duration

    def begin_op(self, op: int) -> None:
        """Open the root span of one op; layer calls are recorded until :meth:`end_op`."""
        self._op = op
        self._aggregate = {}
        frame = [OP_SPAN, 0.0, 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = time.perf_counter()

    def end_op(self) -> None:
        self._close(time.perf_counter())
        if self._stack:
            raise RuntimeError("unbalanced spans at the end of an op")
        self.op_aggregates.append(self._aggregate)

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                ))
                handle.write("\n")

    # -- boundary counters, computed from call arguments -----------------------

    def _repeat(self, name, key) -> None:
        seen = self._seen[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    def _count_derive_rng(self, args, kwargs, result, duration) -> None:
        tag = self._tags.get(int(args[1]), "other") if len(args) > 1 else "none"
        self.tag_calls[tag] += 1

    def _count_halton(self, args, kwargs, result, duration) -> None:
        n = _bound_arg(args, kwargs, 0, "n")
        d = _bound_arg(args, kwargs, 1, "d")
        offset = args[2] if len(args) > 2 else kwargs.get("index_offset", 0)
        self._repeat("halton.halton_block", (int(n), int(d), int(offset)))

    def _count_cost_matrix(self, args, kwargs, result, duration) -> None:
        n, d = np.shape(_bound_arg(args, kwargs, 0, "points"))
        # The n x n x d float64 difference tensor the broadcast materialises.
        self.counters["assignment.rank_cost_matrix.bytes_computed"] += float(n) * n * d * 8

    def _count_lsap(self, args, kwargs, result, duration) -> None:
        self.max_n = max(self.max_n, int(np.shape(_bound_arg(args, kwargs, 0, "costs"))[0]))

    def _count_ranks(self, args, kwargs, result, duration) -> None:
        self._repeat("ranks.empirical_ranks", _array_key(_bound_arg(args, kwargs, 0, "sample")))

    def _count_read(self, args, kwargs, result, duration) -> None:
        self.counters["dataio.read_matrix.bytes"] += os.path.getsize(_bound_arg(args, kwargs, 0, "path"))

    def _count_write(self, args, kwargs, result, duration) -> None:
        self.counters["dataio.write_matrix.bytes"] += os.path.getsize(_bound_arg(args, kwargs, 0, "path"))

    def _count_cli(self, args, kwargs, result, duration) -> None:
        if result != 0:
            self.errors["cli"] += 1
        self.counters[f"cli.{_bound_arg(args, kwargs, 0, 'argv')[0]}.total_s"] += duration
