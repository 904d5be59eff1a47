"""In-process spans around haarlab's public functions, for the traced run.

`Tracer.install()` replaces each function or method in `TARGETS` (and
every module-level alias of it inside haarlab) by a wrapper that records
a span: name, operation, parent span, start and end.  Spans stay in
memory until `write()`.  A span's self time is its duration minus the
durations of its direct children.

The wrappers look only at plain argument values (masks, masses, sides,
certificates) and at return values.  They never read lazily built state
such as `FiniteTopGroup.atoms`, so tracing adds no work of its own that a
later change of representation would remove.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def _closure_key(tracer, args, kwargs, result):
    space, m = args[0], args[1]
    tracer.alive[id(space)] = space
    tracer.keys["topology.closure"].add((id(space), m))


def _is_haar_counts(tracer, args, kwargs, result):
    g, mu = args[0], args[1]
    side = kwargs.get("side", args[2] if len(args) > 2 else "left")
    tracer.alive[id(g)] = g
    tracer.keys["measure.is_haar"].add((id(g), mu.atom_mass, side))
    # Selections visited by the two invariance sweeps (each stops at its
    # first witness) and by the outer and inner regularity sweeps.
    full = 1 << len(mu.atom_mass)
    first = {w[0]: w for w in reversed(result.witnesses)}
    swept = 0
    for kind in ("left", "right"):
        w = first.get(kind)
        swept += w[2] * full + w[1] + 1 if w else g.group.order * full
    for kind in ("outer", "inner"):
        w = first.get(kind)
        swept += w[1] + 1 if w else full
    tracer.counts["measure.sets_swept"] += swept


def _tile_pairs(tracer, args, kwargs, result):
    cert = args[0]
    if result and cert.verdict == "FinitenessViolated":
        m = len(cert.translates)
        tracer.counts["plane.tile_pairs_checked"] += m * (m - 1) // 2


#: (module, class or None, attribute, span name, counter)
TARGETS = [
    ("topology", "FiniteSpace", "__init__", "topology.space_build", None),
    ("topology", "FiniteSpace", "closure", "topology.closure", _closure_key),
    ("topology", "FiniteSpace", "interior", "topology.interior", None),
    ("topology", "FiniteSpace", "separation_flags", "topology.flags", None),
    ("groups", "FiniteGroup", "__init__", "groups.table_validate", None),
    ("groups", "FiniteGroup", "normal_subgroups", "groups.normal_subgroups", None),
    ("groups", None, "coset_topology", "groups.coset_topology", None),
    ("groups", "FiniteTopGroup", "__init__", "groups.top_group_validate", None),
    ("groups", None, "identity_closure", "groups.identity_closure", None),
    ("groups", None, "quotient", "groups.quotient", None),
    ("measure", None, "is_haar", "measure.is_haar", _is_haar_counts),
    ("measure", None, "haar_solution_space", "measure.solution_space", None),
    ("measure", None, "fubini_check", "measure.fubini", None),
    ("measure", None, "pushforward", "measure.push_pull", None),
    ("measure", None, "pullback", "measure.push_pull", None),
    ("covering", None, "covering_number", "covering.covering_number", None),
    ("covering", None, "existence_via_covering", "covering.existence", None),
    ("plane", None, "counterexample_bk", "plane.certificate_build", None),
    ("plane", None, "verify_bk_certificate", "plane.certificate_verify", _tile_pairs),
    ("plane", "IntervalUnion", "__init__", "plane.cylinder", None),
    ("plane", None, "haar_v", "plane.cylinder", None),
    ("plane", None, "translate_v", "plane.cylinder", None),
    ("plane", None, "regularity_gap", "plane.cylinder", None),
    ("cli", None, "run", "cli.run", None),
    ("cli", None, "load_group", "cli.load", None),
    ("cli", None, "load_top_group", "cli.load", None),
    ("cli", None, "load_measure", "cli.load", None),
    ("cli", None, "load_cylinder", "cli.load", None),
]

class Tracer:
    def __init__(self, modules):
        self.modules = modules  # short name -> haarlab module
        self.spans = []  # [name, op, parent, start_ns, end_ns, child_ns, index]
        self.stack = []
        self.counts = defaultdict(int)
        self.distinct = defaultdict(int)
        self.keys = defaultdict(set)
        self.alive = {}
        self.op = None
        self._patches = None

    # -- operations ---------------------------------------------------------

    def begin_op(self, op):
        self.op = op

    def end_op(self):
        """Distinct keys are per operation: objects die between operations."""
        for name, keys in self.keys.items():
            self.distinct[name] += len(keys)
        self.keys.clear()
        self.alive.clear()
        self.op = None

    # -- patching -------------------------------------------------------------

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, self.op, stack[-1][6] if stack else -1, clock(), 0, 0, len(spans)]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                rec[4] = end
                stack.pop()
                if stack:
                    stack[-1][5] += end - rec[3]
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def _plan(self):
        """(owner, attribute, original, wrapper) for every place to patch."""
        plan = []
        for mod_name, cls_name, attr, span, counter in TARGETS:
            mod = self.modules[mod_name]
            if cls_name is not None:
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[attr]
                plan.append((owner, attr, orig, self._wrap(span, orig, counter)))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(span, orig, counter)
            for m in self.modules.values():
                plan.extend((m, key, orig, wrapper) for key, v in vars(m).items() if v is orig)
        return plan

    def install(self):
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------------

    def totals(self):
        """Per span name: (self seconds, calls)."""
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        for name, _, _, start, end, child, _ in self.spans:
            self_ns[name] += end - start - child
            calls[name] += 1
        return {name: (self_ns[name] / 1e9, calls[name]) for name in calls}

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for name, op, parent, start, end, child, index in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "i": index,
                            "name": name,
                            "op": op,
                            "parent": parent,
                            "start_ns": start,
                            "end_ns": end,
                            "self_ns": end - start - child,
                        }
                    )
                    + "\n"
                )
