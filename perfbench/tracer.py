"""Per-layer tracing for benchmark jobs, kept entirely outside the package.

Child side: `install` wraps every public function of each k3cycles module
at every name that binds it (so `theta.norm_histogram`, `gauss.signature`
and `cli.discriminant_group` are seen as calls into their home layer) and
records one span per call in memory, plus a few counters computed from the
arguments and results.  Nothing is written until the job ends.

Parent side: `self_times` and `pass_metrics` turn the spans of many jobs
into the per-layer metrics listed in BENCHMARK.json.  Rates divide a count
taken from returned results by the time spent inside the functions that
returned them: vectors from enumerate_vectors, rep_count and
norm_histogram; tuples from tuple_rep_count; residue terms (c^rank) from
gauss_sum.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYERS = (
    "cli",
    "linalg",
    "lattice",
    "enumeration",
    "theta",
    "gauss",
    "clifford",
    "kuga_satake",
    "numberfield",
    "transfer",
)

# Functions whose own self time is a per-layer metric.
TIMED = (
    "enumeration.tuple_rep_count",
    "linalg.smith_normal_form",
    "linalg.integer_kernel",
    "linalg.solve_integer",
    "linalg.inertia",
    "linalg.solve",
    "lattice.discriminant_group",
    "gauss.gauss_sum",
    "gauss.milgram_invariant",
    "clifford.multiply",
    "clifford.trace",
    "clifford.invert",
    "kuga_satake.ks_report",
    "kuga_satake.special_endo_lattice",
    "numberfield.sign_at",
    "transfer.trace_lattice",
    "transfer.signature_profile",
)
CALLED = ("linalg.smith_normal_form", "clifford.multiply", "numberfield.sign_at")
VECTOR_FUNCTIONS = (
    "enumeration.enumerate_vectors",
    "enumeration.rep_count",
    "enumeration.norm_histogram",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({f"{fn}.self_s": "s" for fn in TIMED})
    units.update({f"{fn}.calls": "count" for fn in CALLED})
    units.update(
        {
            "enumeration.vectors_per_s": "1/s",
            "enumeration.tuples_per_s": "1/s",
            "linalg.snf_entry_bits_max": "bits",
            "lattice.disc_cosets": "count",
            "gauss.residue_terms_per_s": "1/s",
            "clifford.terms_per_product": "count",
            "numberfield.refinements": "count",
        }
    )
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units["trace_overhead_ratio"] = "ratio"
    return units


class Recorder:
    """Spans and counters of one traced job, held in memory."""

    def __init__(self):
        # span: [name, parent index, start, end]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def count(self, key: str, k: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + k

    def peak(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0]
        self.spans.append(span)
        self.stack.append(idx)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.count(name.split(".", 1)[0] + ".errors")
            raise
        finally:
            span[3] = time.perf_counter()
            self.stack.pop()

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def _bits(matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m for x in row), default=0)


def _after(rec: Recorder, name: str, args, result) -> None:
    """Counters derived from a finished call's arguments and result."""
    if name in VECTOR_FUNCTIONS:
        if isinstance(result, dict):
            rec.count("vectors", sum(result.values()))
        elif isinstance(result, list):
            rec.count("vectors", len(result))
        else:
            rec.count("vectors", int(result))
    elif name == "enumeration.tuple_rep_count":
        rec.count("tuples", int(result))
    elif name == "linalg.smith_normal_form":
        rec.peak("snf_bits", _bits(result))
    elif name == "gauss.gauss_sum":
        lat, _a, c = args[:3]
        rec.count("residue_terms", c ** lat.rank)
    elif name == "clifford.multiply":
        x, y = args[:2]
        rec.count("product_terms", len(x.coeffs) * len(y.coeffs))


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = rec.call(name, fn, args, kwargs)
        _after(rec, name, args, result)
        return result

    return traced


def _wrap_sign_at(rec: Recorder, fn):
    """sign_at, counting interval halvings seen through embeddings()."""

    def widths(field):
        return [hi - lo for lo, hi in field.embeddings()]

    @functools.wraps(fn)
    def traced(field, i, x):
        def body():
            before = widths(field)
            result = fn(field, i, x)
            for w0, w1 in zip(before, widths(field)):
                if w1:
                    rec.count("refinements", (w0 / w1).numerator.bit_length() - 1)
            return result

        return rec.call("numberfield.sign_at", body, (), {})

    return traced


def _wrap_elements(rec: Recorder, fn):
    """DiscriminantGroup.elements, counting the cosets it yields."""

    @functools.wraps(fn)
    def traced(group):
        for h in fn(group):
            rec.count("disc_cosets")
            yield h

    return traced


def install(rec: Recorder) -> None:
    """Wrap the public functions of every layer at every binding name."""
    package = [m for n, m in sys.modules.items() if n == "k3cycles" or n.startswith("k3cycles.")]
    replace = {}
    for layer in LAYERS[1:]:
        module = sys.modules[f"k3cycles.{layer}"]
        for attr, obj in vars(module).items():
            if (
                attr.startswith("_")
                or isinstance(obj, type)
                or not callable(obj)
                or getattr(obj, "__module__", None) != module.__name__
                or inspect.isgeneratorfunction(obj)
            ):
                continue
            replace[id(obj)] = _wrap(rec, f"{layer}.{attr}", obj)
    for module in package:
        for attr, obj in list(vars(module).items()):
            if id(obj) in replace:
                setattr(module, attr, replace[id(obj)])
    field_cls = sys.modules["k3cycles.numberfield"].TotallyRealField
    field_cls.sign_at = _wrap_sign_at(rec, field_cls.sign_at)
    group_cls = sys.modules["k3cycles.lattice"].DiscriminantGroup
    group_cls.elements = _wrap_elements(rec, group_cls.elements)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one job come from one thread, so children nest inside their
    parent and never overlap each other.
    """
    out = [end - start for _name, _parent, start, end in spans]
    for _name, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def pass_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the traced jobs of one pass."""
    layer_self = dict.fromkeys(LAYERS, 0.0)
    fn_self: dict[str, float] = {}
    fn_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    for trace in traces:
        spans = trace["spans"]
        for (name, _parent, start, end), own in zip(spans, self_times(spans)):
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += own
            fn_self[name] = fn_self.get(name, 0.0) + own
            fn_total[name] = fn_total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        for key, value in trace["counters"].items():
            if key == "snf_bits":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value

    def rate(count_key, *fns):
        busy = sum(fn_total.get(fn, 0.0) for fn in fns)
        return counters.get(count_key, 0) / busy if busy > 0 else 0.0

    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update({f"{fn}.self_s": fn_self.get(fn, 0.0) for fn in TIMED})
    out.update({f"{fn}.calls": calls.get(fn, 0) for fn in CALLED})
    products = calls.get("clifford.multiply", 0)
    out.update(
        {
            "enumeration.vectors_per_s": rate("vectors", *VECTOR_FUNCTIONS),
            "enumeration.tuples_per_s": rate("tuples", "enumeration.tuple_rep_count"),
            "linalg.snf_entry_bits_max": counters.get("snf_bits", 0),
            "lattice.disc_cosets": counters.get("disc_cosets", 0),
            "gauss.residue_terms_per_s": rate("residue_terms", "gauss.gauss_sum"),
            "clifford.terms_per_product": (
                counters.get("product_terms", 0) / products if products else 0.0
            ),
            "numberfield.refinements": counters.get("refinements", 0),
        }
    )
    out.update({f"{layer}.errors": counters.get(f"{layer}.errors", 0) for layer in LAYERS})
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
