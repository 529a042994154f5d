"""Timed spans around the calls into each arcat layer, from outside arcat.

`Tracer.install()` replaces every traced function at each of its binding
sites: the defining module, every module that imported it by name (for
example `from .modcat import hom_space` in repcat, complexes and cli), and
the class for methods such as `Mat.rref` and `Mat.__matmul__`.  Each call
records a span (name, start, end, parent span, op id) in flat arrays and
updates exact per-function totals: calls, inclusive seconds (outermost
call only, so recursion is not counted twice) and self seconds (the span
minus its child spans).  `uninstall()` restores every binding.
"""

import gzip
import inspect
import json
import sys
import time
from array import array

LAYERS = ("linalg", "quiver", "fincat", "algebra", "modcat", "repcat",
          "complexes", "cli")

# Per-element accessors and field scalar arithmetic run 10^5 times a second;
# they are not layer operations, and timing them would swamp the trace.
UNTRACED = {
    "linalg": {"Field", "Mat.at", "Mat.row", "Mat.col", "Mat.to_lists",
               "Mat.is_zero", "Mat.scale", "Mat.zeros", "Mat.identity",
               "Mat.from_rows", "Mat.column"},
    "quiver": {"Path.length", "Path.contains_factor", "Quiver.out_arrows",
               "Quiver.trivial_path", "MonomialIdeal.kills",
               "MonomialIdeal.kills_suffix", "BoundQuiver.paths", "path_key"},
    "fincat": {"FinCategory.dim", "FinCategory.hom_index",
               "FinCategory.zero_coords", "FinCategory.basis_coords",
               "FinCategory.compose", "FinCategory.is_radical",
               "AddObject.of", "AddObject.is_zero"},
    "algebra": {"TableAlgebra.zero", "TableAlgebra.basis_element",
                "TableAlgebra.mul", "TableAlgebra.add", "TableAlgebra.sub",
                "TableAlgebra.scale"},
    "modcat": {"CModule.act", "CModule.total_dim", "CModule.is_zero",
               "CModule.dim_vector"},
    "repcat": {"QRep.total_dim", "QRep.is_zero"},
    "complexes": {"NComplexSpec", "NComplex.total_dim", "NComplex.is_zero",
                  "NComplex.degree_dims"},
    "cli": {"ParseError", "QuiverDraft", "JobSpec"},
}

# Private or special functions traced under a public name.
ALIASES = {
    "Mat.rref": "rref", "Mat.__matmul__": "matmul",
    "Mat.kernel_basis": "kernel_basis", "Mat.inverse": "inverse",
    "Mat.rank": "rank", "BoundQuiver.__init__": "bound_quiver",
    "TableAlgebra.minimal_polynomial": "minimal_polynomial",
    "_split_idempotent_from_element": "candidate",
    "FinCategory._validate": "validate", "CModule._validate": "validate",
    "ModuleMap._validate": "validate", "QRep._validate": "validate",
    "QRepMap._validate": "validate", "NComplex._validate": "validate",
    "NChainMap._validate": "validate",
}

# Functions whose non-None results are counted as hits.
HIT_KEYS = {"modcat.is_isomorphic", "algebra.candidate"}


def _targets(module, layer):
    """(qualified name, owner, attribute, function) for the traced callables."""
    skip = UNTRACED.get(layer, set())
    out = []
    for attr, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__ or attr in skip:
            continue
        if inspect.isfunction(obj):
            if (not attr.startswith("_") or attr in ALIASES) \
                    and not inspect.isgeneratorfunction(obj):
                out.append((attr, module, attr, obj))
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                qual = f"{attr}.{meth}"
                if not inspect.isfunction(fn) or qual in skip:
                    continue
                if meth.startswith("_") and qual not in ALIASES:
                    continue
                out.append((qual, obj, meth, fn))
    return out


class Tracer:
    def __init__(self, binding_modules=()):
        self.names = []
        self.calls = []
        self.incl = []
        self.self_s = []
        self.hits = []
        self.active = []
        self.stack = []
        self.rref_entries = 0
        self.op = -1
        self.top_s = 0.0
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._binding_modules = binding_modules
        self._saved = []

    def install(self):
        originals = {}
        keys = {}
        for layer in LAYERS:
            module = sys.modules[f"arcat.{layer}"]
            for qual, owner, attr, fn in _targets(module, layer):
                key = f"{layer}.{ALIASES.get(qual, qual)}"
                if key not in keys:
                    keys[key] = len(self.names)
                    self.names.append(key)
                    for counter in (self.calls, self.incl, self.self_s,
                                    self.hits, self.active):
                        counter.append(0)
                wrapped = self._wrap(keys[key], fn, key in HIT_KEYS,
                                     qual == "Mat.rref")
                if owner is module:
                    originals[id(fn)] = (fn, wrapped)
                else:
                    self._saved.append((owner, attr, fn))
                    setattr(owner, attr, wrapped)
        modules = [m for name, m in sys.modules.items()
                   if name == "arcat" or name.startswith("arcat.")]
        modules += list(self._binding_modules)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved = []

    def _wrap(self, key, fn, count_hits, count_entries):
        clock = time.perf_counter
        tracer = self
        calls, incl, self_s, hits = self.calls, self.incl, self.self_s, self.hits
        active, stack = self.active, self.stack
        s_key, s_parent, s_op = self.span_key, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            calls[key] += 1
            if count_entries:
                tracer.rref_entries += args[0].rows * args[0].cols
            sid = len(s_key)
            s_key.append(key)
            s_parent.append(stack[-1][0] if stack else -1)
            s_op.append(tracer.op)
            s_end.append(0.0)
            active[key] += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                s_end[sid] = t1
                active[key] -= 1
                dur = t1 - t0
                self_s[key] += dur - frame[1]
                if not active[key]:
                    incl[key] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_s += dur
            if count_hits and result is not None:
                hits[key] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def totals(self):
        """{name: (calls, inclusive s, self s, hits)} over every traced name."""
        return {n: (self.calls[k], self.incl[k], self.self_s[k], self.hits[k])
                for k, n in enumerate(self.names)}

    def write_spans(self, path, op_names):
        """Gzipped JSON lines: a header naming the ops, then one span a line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"ops": op_names}) + "\n")
            for sid in range(len(self.span_key)):
                fh.write('{"id":%d,"name":"%s","start":%.9f,"end":%.9f,'
                         '"parent":%d,"op":%d}\n'
                         % (sid, self.names[self.span_key[sid]],
                            self.span_start[sid], self.span_end[sid],
                            self.span_parent[sid], self.span_op[sid]))
