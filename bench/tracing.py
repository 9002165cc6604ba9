"""Span tracer installed around odowin's public functions from outside.

Each wrapped call records one span: name, start, end and the index of the
enclosing span.  Spans stay in memory until the run ends.  A span's self time
is its length minus the length of its direct children; per-layer metrics are
the self times summed by span name, plus counts read off arguments and
results at the same call boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _rows(key):
    """Count the rows of the first array argument (after self)."""

    def count(counts, args, kwargs, result):
        counts[key] += int(args[1].shape[0])

    return count


def _calls(key):
    def count(counts, args, kwargs, result):
        counts[key] += 1

    return count


def _closure(counts, args, kwargs, result):
    auto = args[0]
    states = sum(len(level) for level in auto.states)
    transitions = sum(
        len(auto.states[j - 1]) * len(auto.ds.alphabet(j)) ** 2 for j in range(1, auto.levels + 1)
    )
    counts["expansion.closures"] += 1
    counts["expansion.closure_states"] += states
    counts["expansion.closure_transitions"] += transitions
    counts["expansion.carries"] += sum(len(s) for s in auto.carry_range.sets)


def _telescoped(counts, args, kwargs, result):
    counts["windows.telescoped"] += sum(1 for line in result.build_log if line.startswith("telescoped"))


def _tree(counts, args, kwargs, result):
    counts["windows.tree_cylinders"] += sum(len(a) for a in args[0].class_by_rank)


def _classify(counts, args, kwargs, result):
    counts["windows.classify_rows"] += int(args[1].shape[0]) if hasattr(args[1], "shape") else 1


def _positions(counts, args, kwargs, result):
    counts["model_sets.emit_positions"] += len(result.positions)


def _text_bytes(counts, args, kwargs, result):
    counts["model_sets.jsonl_bytes"] += len(result.encode())


def _candidates(counts, args, kwargs, result):
    counts["fibers.candidates"] += len(result.candidates)


# (module, attribute path, span name, count hook).  A span name is the
# per-layer time metric its self time is charged to.
_VEC_GROUPS = ("ZGroup", "Z2Group", "HeisenbergGroup")
TARGETS = (
    [("groups", f"{c}.vec_mul", "groups.vec_mul_s", _rows("groups.vec_rows")) for c in _VEC_GROUPS]
    + [("groups", f"{c}.vec_inv", "groups.vec_inv_s", _rows("groups.vec_rows")) for c in _VEC_GROUPS]
    + [
        ("groups", "GroupContext.vec_residue_rank", "groups.vec_residue_rank_s", _rows("groups.vec_rows")),
        ("groups", "GroupContext.to_array", "groups.to_array_s", None),
        ("expansion", "DomainSequence.vec_digit_indices", "expansion.digit_indices_s",
         _rows("expansion.digit_indices_rows")),
        ("expansion", "CarryAutomaton.batch_product", "expansion.batch_product_s",
         _rows("expansion.batch_product_rows")),
        ("expansion", "verify_carry_identity", "expansion.verify_carry_s", None),
        ("expansion", "CarryAutomaton.__init__", "expansion.closure_s", _closure),
        ("expansion", "DomainSequence.append_level", "expansion.domains_s",
         _calls("expansion.domain_levels")),
        ("expansion", "DomainSequence.digit_prefix", "expansion.digit_prefix_s",
         _calls("expansion.digit_prefix_calls")),
    ]
    + [
        ("odometer", name, "odometer.s", None)
        for name in ("embed", "sample_point", "head_of_point", "odo_mul", "odo_inv", "metric",
                     "points_equal", "cylinder_of", "haar")
    ]
    + [
        ("windows", "build_perf", "windows.build_s", _telescoped),
        ("windows", "build_k", "windows.build_s", None),
        ("windows", "build_ktilde", "windows.build_s", None),
        ("windows", "CylinderTree.__init__", "windows.tree_s", _tree),
        ("windows", "CylinderTree.vec_classify", "windows.classify_s", _classify),
        ("windows", "CylinderTree.classify_indices", "windows.classify_s", _classify),
    ]
    + [
        ("windows", name, "windows.verify_s", None)
        for name in ("verify_window", "boundary_measure", "check_genericity", "check_irredundancy",
                     "check_self_similarity", "check_boundary_stability")
    ]
    + [
        ("windows", "folner_ratio", "windows.folner_s", None),
        ("windows", "serialize_window", "windows.serialize_s", None),
        ("windows", "parse_window", "windows.parse_s", None),
        ("model_sets", "emit_patch", "model_sets.emit_s", _positions),
        ("model_sets", "patch_jsonl", "model_sets.jsonl_s", _text_bytes),
        ("model_sets", "patch_pgm", "model_sets.pgm_s", None),
        ("fibers", "enumerate_fiber", "fibers.fiber_s", _candidates),
        ("fibers", "FiberSet.distinct", "fibers.distinct_s", None),
        ("fibers", "similarity_classes", "fibers.similarity_s", None),
        ("fibers", "birkhoff_stats", "fibers.stats_s", None),
        ("cli", "cmd_build", "cli.build_s", None),
        ("cli", "cmd_verify", "cli.verify_s", None),
        ("cli", "cmd_emit", "cli.emit_s", None),
        ("cli", "cmd_fiber", "cli.fiber_s", None),
        ("cli", "cmd_stats", "cli.stats_s", None),
        ("cli", "cmd_render", "cli.render_s", None),
        ("cli", "main", "cli.self_s", None),
    ]
)

TIME_METRICS = sorted({t[2] for t in TARGETS})
COUNT_METRICS = [
    "groups.vec_rows",
    "expansion.digit_indices_rows",
    "expansion.batch_product_rows",
    "expansion.closures",
    "expansion.closure_states",
    "expansion.closure_transitions",
    "expansion.carries",
    "expansion.domain_levels",
    "expansion.digit_prefix_calls",
    "windows.telescoped",
    "windows.tree_cylinders",
    "windows.classify_rows",
    "model_sets.emit_positions",
    "model_sets.jsonl_bytes",
    "fibers.candidates",
    "cli.bytes_written",
]


class Tracer:
    """Installs span wrappers into the odowin modules; ``with`` removes them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n == "odowin" or n.startswith("odowin.")]
        for mod_name, path, name, hook in TARGETS:
            owner = sys.modules[f"odowin.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, name, hook)
            self._patch(owner, attr, wrapped)
            if not outer:
                # Functions are also bound by name in importing modules.
                for mod in modules:
                    if mod is not owner and mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, wrapped)
        return self

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name in TIME_METRICS}
        for i, (nid, start, end, _parent) in enumerate(self.spans):
            out[self.names[nid]] += end - start - child[i]
        return out

    def metrics(self) -> dict[str, float]:
        out = dict(self.self_times())
        for key in COUNT_METRICS:
            out[key] = self.counts.get(key, 0)
        states = out["expansion.closure_states"]
        out["expansion.carries_per_state"] = out["expansion.carries"] / states if states else 0.0
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
