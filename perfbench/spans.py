"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install` replaces every public function of the traced layers
(`_kernels`, `oracle`, `osalg`, `rings`, `neighborly`, `graphs`) at each
module attribute that holds it, across all loaded `resonance_lab` modules.
That is the name a caller looks the function up through: `oracle` calls
`_kernels.scan_nullities` through the `_kernels` module, `oracle.is_resonant`
is the `osalg` function imported into `oracle`, and `rings.kernel_modn`
reaches `smith_normal_form` through the `rings` globals.  Each call records
one span (name, start, end, parent) in parallel lists; `uninstall` restores
the originals.  Nothing in the program is edited.

Generator functions are left unwrapped: their work runs during the caller's
iteration, so it is counted in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "_kernels": "kernels",
    "oracle": "oracle",
    "osalg": "osalg",
    "rings": "rings",
    "neighborly": "neighborly",
    "graphs": "graphs",
}

# Per-call details that the per-layer metrics need beyond a span: candidate
# counts and shapes from the kernel's arguments, and result sizes.
_NOTES = {
    "kernels.scan_nullities":
        lambda a, kw, r: (a[3], a[4], f"F{a[1].cardinality}", a[6] - a[5]),
    "oracle.scan_resonance": lambda a, kw, r: (r.universe, len(r.points)),
    "oracle.scan_component": lambda a, kw, r: (r.universe, len(r.points)),
    "neighborly.enumerate_neighborly": lambda a, kw, r: len(r),
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj)
                and not inspect.isclass(obj)
                and not inspect.isgeneratorfunction(obj)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class Tracer:
    """Spans of every call into the traced layers, kept in memory."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.notes: dict = {}
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package: str = "resonance_lab") -> None:
        targets = {}
        for short, layer in LAYERS.items():
            module = sys.modules[f"{package}.{short}"]
            for fname, fn in _public_functions(module):
                targets[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        holders = [mod for key, mod in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list:
        """Duration of each span minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        own = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += self.ends[i] - self.starts[i]
            row["self_s"] += own[i]
        return dict(out)

    def notes_for(self, name: str) -> list:
        """(span index, note) of every span of that name."""
        return [(i, note) for i, note in self.notes.items()
                if self.names[i] == name]

    def dump(self, path) -> None:
        """Write every span as one JSON document of parallel arrays."""
        t0 = self.starts[0] if self.starts else 0.0
        names = sorted(set(self.names))
        code = {n: k for k, n in enumerate(names)}
        doc = {
            "names": names,
            "span_name": [code[n] for n in self.names],
            "start_us": [round((s - t0) * 1e6, 1) for s in self.starts],
            "end_us": [round((e - t0) * 1e6, 1) for e in self.ends],
            "parent": self.parents,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
