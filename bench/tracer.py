"""Per-layer spans around the calls one stargraded module makes into another.

The tracer wraps library functions from outside the library: it rebinds each
wrapped function under every name that refers to it, in every stargraded
module (`from .core import sparse_mul` binds the name separately in core,
analysis and polynomials), and patches methods on their class. Nothing under
src/ changes, and `uninstall` restores every binding.

A layer is a group of functions. Each call is a span with a name, start, end,
parent span and job id; a layer's self time is its spans' durations minus the
time covered by their child spans. Spans of the hot leaf layers (millions of
calls per job) are folded into their layer totals and their parent's child
time instead of being kept one by one; all other spans are kept in memory and
written out when the run ends.
"""

import json
import sys
import time

# layer -> (module, qualified function names, hot, tally applied to the result)
LAYERS = {
    "core.sparse_mul": ("core", ("sparse_mul",), True, bool),
    "linalg.rank_insert": ("linalg", ("RankTracker.add",), True, bool),
    "polynomials.dp_extend": ("polynomials", ("_extend_alternating",), True, len),
    "linalg.elim": ("linalg", ("rref", "nullspace", "solve", "rank", "mat_mul", "mat_vec"), True, None),
    "linalg.subspace": ("linalg", ("Subspace.__init__", "Subspace.contains"), True, None),
    "polynomials.capelli_member": ("polynomials", ("capelli_member",), False, lambda p: len(p.terms)),
    "polynomials.naive_replay": ("polynomials", ("evaluate_sparse",), False, None),
    "analysis.codim": (
        "analysis",
        ("codim_graded", "codim_ordinary", "codim_graded_bruteforce", "codim_table"),
        False,
        None,
    ),
    "analysis.sweep": (
        "analysis",
        (
            "capelli_threshold",
            "ordinary_capelli_threshold",
            "barred_rank_is_identity",
            "is_graded_identity",
            "satisfies_generator_set",
            "threshold_offsets",
        ),
        False,
        None,
    ),
    "analysis.exponent": ("analysis", ("admissible_exponent", "is_reduced"), False, None),
    "core.validate": ("core", ("validate",), False, None),
    "core.jacobson_radical": ("core", ("jacobson_radical",), False, None),
    "core.hom_components": ("core", ("hom_components",), False, None),
    "core.peirce": (
        "core",
        (
            "peirce_decompose",
            "radical_centralizer",
            "central_primitive_idempotents",
            "is_star_graded_simple",
            "block_unit",
        ),
        False,
        None,
    ),
    "core.interchange": ("core", ("from_interchange", "to_interchange"), False, None),
    "triangular.ut_star": ("triangular", ("ut_star",), False, None),
    "families.build_family": ("families", ("build_family",), False, None),
    "extensions": (
        "extensions",
        (
            "one_sided_radical_extension",
            "tensor_nilpotent_extension",
            "commutative_nilpotent",
            "noncommutative_nilpotent",
        ),
        False,
        None,
    ),
    "checks.parse": ("checks", ("parse_algebra_spec", "parse_ut_spec", "parse_family_token"), False, None),
}

JOB = "bench.job"


class Tracer:
    """Install with `install()`, run jobs inside `job(id)`, read `stats`."""

    def __init__(self):
        self._root = [0.0, -1]
        self._stack = [self._root]
        self._job = None
        self._bindings = []  # (owner, attribute, original)
        self.spans = []
        # (layer, "module.qualname") -> [calls, self_s, tally]; one entry per function
        self.stats = {}
        self._originals = {}  # id(original) -> (original, wrapper)

    # ------------------------------------------------------------ binding

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "stargraded" or n.startswith("stargraded.")]
        for layer, (modname, names, hot, tally) in LAYERS.items():
            module = sys.modules[f"stargraded.{modname}"]
            for qualname in names:
                owner, attr = module, qualname
                if "." in qualname:
                    cls, attr = qualname.split(".")
                    owner = getattr(module, cls)
                original = owner.__dict__[attr]
                stat = self.stats.setdefault((layer, f"{modname}.{qualname}"), [0, 0.0, 0])
                wrapper = self._wrap(original, layer, stat, hot, tally)
                self._originals[id(original)] = (original, wrapper)
                if owner is not module:
                    self._bind(owner, attr, original, wrapper)
        # every module-level name bound to a wrapped function, in every module
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bind(module, attr, value, hit[1])
        return self

    def _bind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._bindings.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()
        self._originals.clear()

    def _wrap(self, fn, layer, stat, hot, tally):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, -1]
            if not hot:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                stat[0] += 1
                stat[1] += d - frame[0]
                if not hot:
                    spans[frame[1]] = (layer, t0, t1, parent[1], tracer._job)
            if tally is not None:
                stat[2] += tally(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__qualname__ = getattr(fn, "__qualname__", layer)
        return wrapper

    # ------------------------------------------------------------ jobs

    def job(self, job_id, fn):
        """Run one job as a root span; returns fn()."""
        stat = self.stats.setdefault((JOB, JOB), [0, 0.0, 0])
        frame = [0.0, len(self.spans)]
        self.spans.append(None)
        self._stack.append(frame)
        self._job = job_id
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            stat[0] += 1
            stat[1] += (t1 - t0) - frame[0]
            self.spans[frame[1]] = (JOB, t0, t1, -1, job_id)
            self._job = None

    def reset(self):
        """Zero the counters (spans are kept)."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0]

    def snapshot(self):
        return {key: tuple(stat) for key, stat in self.stats.items()}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                name, t0, t1, parent, job = span
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1, "parent": parent, "job": job}))
                fh.write("\n")


def layer_totals(snapshot):
    """Sum a per-function snapshot into per-layer [calls, self_s, tally]."""
    out = {}
    for (layer, _), (calls, self_s, tally) in snapshot.items():
        acc = out.setdefault(layer, [0, 0.0, 0])
        acc[0] += calls
        acc[1] += self_s
        acc[2] += tally
    return out
