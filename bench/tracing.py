"""Spans around the public functions of each dynbraid layer, from outside.

Modules bind names with ``from ... import``, so a wrapper must replace the
name in every module that holds it, not only in the defining module.
``Tracer.install`` does that for each function in ``LAYERS`` and
``Tracer.remove`` puts the originals back.  Spans (name, parent, op, start,
end) are kept in memory in flat arrays and written out at the end.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict

import mpmath

# (defining module, function name, span name)
LAYERS = (
    ("dynbraid.cli", "main", "cli.main"),
    ("dynbraid.braid", "parse_braid", "braid.parse_braid"),
    ("dynbraid.update", "traced_apply", "update.traced_apply"),
    ("dynbraid.update", "apply_braid", "update.apply_braid"),
    ("dynbraid.coords", "positive_normalize", "coords.positive_normalize"),
    ("dynbraid.coords", "projective_distance", "coords.projective_distance"),
    ("dynbraid.regions", "dynnikov_matrices", "regions.dynnikov_matrices"),
    ("dynbraid.regions", "find_unstable_direction", "regions.find_unstable_direction"),
    ("dynbraid.regions", "enumerate_regions_n3", "regions.enumerate_regions_n3"),
    ("dynbraid.spectral", "dilatation", "spectral.dilatation"),
    ("dynbraid.spectral", "char_poly", "spectral.char_poly"),
    ("dynbraid.spectral", "isospectral_up_to", "spectral.isospectral_up_to"),
    ("dynbraid.traintrack", "enumerate_diagonal_extensions", "traintrack.enumerate_diagonal_extensions"),
    ("dynbraid.traintrack", "change_of_coords", "traintrack.change_of_coords"),
    ("dynbraid.traintrack", "verify_conjugacy", "traintrack.verify_conjugacy"),
    ("dynbraid.traintrack", "transition_pf", "traintrack.transition_pf"),
    ("dynbraid.traintrack", "pinch_unpunctured", "traintrack.pinch"),
    ("dynbraid.traintrack", "pinch_punctured", "traintrack.pinch"),
    ("dynbraid.traintrack", "load_track", "traintrack.load_track"),
)

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child", "span", "kids", "probes", "prec")

    def __init__(self, name, start, span):
        self.name = name
        self.start = start
        self.child = 0.0  # time covered by direct child spans
        self.span = span
        self.kids = Counter()  # direct child calls by span name
        self.probes = []  # (matrix, has_ties) of traced_apply children
        self.prec = 0  # working precision at the last apply_braid child


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self._stack = []
        self._saved = []
        self.missing = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()  # layer-specific counters, see _finish

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace every module binding of each layer function by a wrapper."""
        mods = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "dynbraid" and m]
        for modname, attr, span in LAYERS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(span, fn)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def remove(self):
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1].span if stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = _Frame(name, _clock(), span)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._finish(frame, None, True)
                raise
            self._finish(frame, result, False)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _finish(self, frame, result, raised):
        end = _clock()
        stack = self._stack
        stack.pop()
        dur = end - frame.start
        self.span_start[frame.span] = frame.start
        self.span_end[frame.span] = end
        name = frame.name
        self.calls[name] += 1
        self.self_s[name] += dur - frame.child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += dur
            parent.kids[name] += 1
        c = self.counts
        if name == "update.traced_apply" and not raised:
            ties = result.signature.has_ties
            c["traced_apply.ties"] += ties
            if parent is not None and parent.name == "regions.dynnikov_matrices":
                parent.probes.append((result.matrix, ties))
        elif name == "update.apply_braid" and parent is not None:
            parent.prec = mpmath.mp.prec
        elif name == "regions.dynnikov_matrices":
            c["dynnikov.probes"] += len(frame.probes)
            if not raised:
                kept = {m.matrix for m in result}
                seen = set()
                for matrix, ties in frame.probes:
                    if not ties and matrix not in seen:
                        seen.add(matrix)
                        c["dynnikov.useful"] += matrix in kept
                c["dynnikov.dropped"] += len(seen) - len(kept)
        elif name == "regions.find_unstable_direction":
            c["direction.apply_calls"] += frame.kids["update.apply_braid"]
            c["direction.final_prec"] += frame.prec
        elif name == "regions.enumerate_regions_n3":
            c["regions3.traces"] += frame.kids["update.traced_apply"]
            if not raised:
                c["regions3.arcs"] += len(result)
        elif name == "spectral.dilatation":
            c["dilatation.failed"] += raised
        elif name == "traintrack.enumerate_diagonal_extensions" and not raised:
            c["extensions.tracks_out"] += len(result)

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Write every span as columns: name index, parent span, op, start, end."""
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "op", "start_s", "end_s"],
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "start_s": self.span_start.tolist(),
            "end_s": self.span_end.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def metrics(self) -> dict:
        """Per-layer metrics, as name -> (value, unit)."""
        calls, self_s, c = self.calls, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in ("cli.main", "update.traced_apply", "update.apply_braid",
                     "regions.dynnikov_matrices", "regions.find_unstable_direction",
                     "regions.enumerate_regions_n3", "spectral.dilatation"):
            out[f"{name}.calls"] = (calls[name], "count")
        for name in (
            "cli.main", "braid.parse_braid", "update.traced_apply", "update.apply_braid",
            "coords.positive_normalize", "coords.projective_distance",
            "regions.dynnikov_matrices", "regions.find_unstable_direction",
            "regions.enumerate_regions_n3", "spectral.dilatation", "spectral.char_poly",
            "spectral.isospectral_up_to", "traintrack.enumerate_diagonal_extensions",
            "traintrack.change_of_coords", "traintrack.verify_conjugacy",
            "traintrack.transition_pf", "traintrack.pinch", "traintrack.load_track",
        ):
            out[f"{name}.self_s"] = (self_s[name], "s")
        dm, fd = calls["regions.dynnikov_matrices"], calls["regions.find_unstable_direction"]
        out.update({
            "update.traced_apply.tie_frac":
                (ratio(c["traced_apply.ties"], calls["update.traced_apply"]), "frac"),
            "regions.dynnikov_matrices.probes_per_call": (ratio(c["dynnikov.probes"], dm), "count"),
            "regions.dynnikov_matrices.probe_useful_frac":
                (ratio(c["dynnikov.useful"], c["dynnikov.probes"]), "frac"),
            "regions.dynnikov_matrices.candidates_dropped": (c["dynnikov.dropped"], "count"),
            "regions.find_unstable_direction.apply_calls_per_call":
                (ratio(c["direction.apply_calls"], fd), "count"),
            "regions.find_unstable_direction.final_precision_bits":
                (ratio(c["direction.final_prec"], fd), "bits"),
            "regions.enumerate_regions_n3.traces_per_arc":
                (ratio(c["regions3.traces"], c["regions3.arcs"]), "count"),
            "spectral.dilatation.failed": (c["dilatation.failed"], "count"),
            "traintrack.enumerate_diagonal_extensions.tracks_out":
                (c["extensions.tracks_out"], "count"),
        })
        return out
