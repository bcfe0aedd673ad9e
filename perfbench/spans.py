"""Spans around calls into cayleytones, recorded from outside the package.

Tracer.install() replaces each public function (the names in
cayleytones.__all__, plus the methods listed in METHODS) wherever a
cayleytones module holds a reference to it, with a wrapper that records
(name, start, end, parent span, op id). uninstall() puts the originals
back. Self time is a span's duration minus that of its direct children;
over one call tree the self times add up to the root span.
"""

from __future__ import annotations

import gzip
import inspect
import re
import sys
import time
from functools import wraps

MODULES = ("cli", "counterpoint", "cayley", "music", "modular", "audio")

# Layer of each traced function. A function missing here falls into
# "<module>.other".
LAYERS = {
    "cli.main": "cli.main",
    "counterpoint.extend_to_partitions": "counterpoint.extend",
    "counterpoint.find_affine_for_partition": "counterpoint.verify",
    "counterpoint.enumerate_weak_witnesses": "counterpoint.weak",
    "counterpoint.strong_search_report": "counterpoint.strong",
    "counterpoint.maximal_consonant_extension": "counterpoint.maximal",
    "counterpoint.minimal_oriented_refinement": "counterpoint.refine",
    "counterpoint.SearchReport.to_json": "counterpoint.to_json",
    "cayley.is_isometry_by_generators": "cayley.is_isometry",
    "cayley.is_isometry_bruteforce": "cayley.is_isometry",
    "cayley.GeneratorSet.is_generating": "cayley.is_generating",
    "cayley.distance": "cayley.distance",
    "cayley.oriented_path_length": "cayley.distance",
    "cayley.CayleyGraph.distance": "cayley.distance",
    "cayley.CayleyGraph.oriented_path_length": "cayley.distance",
    "music.system_from_factors": "music.system",
    "music.validate_system": "music.system",
    "music.chord_catalog": "music.theory",
    "music.chord_from_steps": "music.theory",
    "music.circle_of_fifths": "music.theory",
    "music.interval_table": "music.theory",
    "music.largest_chord_within_octave": "music.theory",
    "music.scale": "music.theory",
    "music.triad": "music.theory",
    "modular.units": "modular.units",
    "audio.RenderPlan.from_dict": "audio.parse",
    "audio.envelope_from_dict": "audio.parse",
    "audio.read_wav": "audio.parse",
    "audio.note_frequency": "audio.oscillator",
    "audio.pure_tone": "audio.oscillator",
    "audio.shape_note": "audio.oscillator",
    "audio.Envelope.amplitudes": "audio.envelope",
    "audio.mix_chord": "audio.mix",
    "audio.render": "audio.assemble",
    "audio._quantize": "audio.quantize",
    "audio.write_wav": "audio.write",
}

# Methods traced besides the functions in __all__. CayleyGraph's methods
# carry the CLI's distance queries, RenderPlan.from_dict the plan parsing,
# and the private _quantize (when present) splits quantizing from WAV I/O.
METHODS = (
    ("counterpoint", "SearchReport", "to_json"),
    ("cayley", "GeneratorSet", "is_generating"),
    ("cayley", "CayleyGraph", "distance"),
    ("cayley", "CayleyGraph", "oriented_path_length"),
    ("audio", "Envelope", "amplitudes"),
    ("audio", "RenderPlan", "from_dict"),
)
PRIVATE = (("audio", "_quantize"),)

# Functions whose return values give counts, and the notes they are read from.
OBSERVED = (
    "counterpoint.extend_to_partitions",
    "counterpoint.enumerate_weak_witnesses",
    "counterpoint.strong_search_report",
    "audio.render",
)
_NOTE_COUNTS = {
    "counterpoint.involutive_isometries": re.compile(r"involutive isometries among candidates: (\d+)"),
    "counterpoint.subsets_accepted": re.compile(r"extension subsets accepted across witnesses: (\d+)"),
}


def _note_count(report, key: str) -> int:
    for note in report.notes:
        match = _NOTE_COUNTS[key].search(note)
        if match:
            return int(match.group(1))
    print(f"warning: no {key} note in the report", file=sys.stderr)
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, start, end, parent index, op id)
        self._stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {}
        self._undo: list[tuple] = []

    def _count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _observe(self, name: str, args: tuple, result) -> None:
        """Counts taken from what the traced functions return."""
        if name == "counterpoint.extend_to_partitions":
            self._count("counterpoint.partitions", len(result.partitions))
            self._count("counterpoint.subsets_accepted", _note_count(result, "counterpoint.subsets_accepted"))
        elif name in ("counterpoint.enumerate_weak_witnesses", "counterpoint.strong_search_report"):
            self._count("counterpoint.maps_examined", result.examined)
            self._count("counterpoint.witnesses", len(result.witnesses))
            if name == "counterpoint.enumerate_weak_witnesses":
                self._count(
                    "counterpoint.involutive_isometries",
                    _note_count(result, "counterpoint.involutive_isometries"),
                )
        elif name == "audio.render":
            plan = args[0]
            self._count("audio.events", len(plan.events))
            self._count("audio.voices", sum(len(e.notes) for e in plan.events))
            self._count("audio.samples", len(result))

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observed = name in OBSERVED

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
            if observed:
                self._observe(name, args, result)
            return result

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        modules = {m: sys.modules[f"{package.__name__}.{m}"] for m in MODULES}
        originals = {}
        for public in package.__all__:
            obj = getattr(package, public)
            if inspect.isfunction(obj) and obj.__module__.startswith(package.__name__ + "."):
                originals[obj] = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
        for module, attr in PRIVATE:
            obj = getattr(modules[module], attr, None)
            if inspect.isfunction(obj):
                originals[obj] = f"{module}.{attr}"
        originals[modules["cli"].main] = "cli.main"
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._replace(module, attr, wrappers[value])
        for module, cls_name, attr in METHODS:
            cls = getattr(modules[module], cls_name)
            raw = cls.__dict__[attr]
            name = f"{module}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._replace(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._replace(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layers(self) -> dict:
        """Per function and per layer: calls and self time in seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict] = {}
        for (name_id, start, end, _, _), inner in zip(self.spans, child):
            name = self.names[name_id]
            layer = LAYERS.get(name, name.split(".", 1)[0] + ".other")
            for key in (f"fn:{name}", layer):
                row = table.setdefault(key, {"calls": 0, "self_s": 0.0})
                row["calls"] += 1
                row["self_s"] += end - start - inner
        return table

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start_s,end_s,parent,op\n")
            for name_id, start, end, parent, op in self.spans:
                out.write(f"{self.names[name_id]},{start:.9f},{end:.9f},{parent},{op}\n")
