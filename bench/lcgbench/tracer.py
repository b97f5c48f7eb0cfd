"""Output sink and span tracer used around calls into lcgspec.

`Sink` stands in for stdout and stderr: it keeps a byte count, a sha256 and a
short tail, and the full text only when a checker has to parse it, so that a
40 MB dump never sits in memory.

`Tracer` wraps public lcgspec functions from outside the package.  Modules
bind `from .x import y` at import time, so each function is replaced in every
lcgspec module that holds it by name, and restored afterwards.  Spans (name,
start, end, parent, query id) stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# Traced functions, as <module>.<function> inside the lcgspec package.
LAYERS = (
    "cli.main",
    "exprparse.parse_int_expr",
    "exprparse.parse_endpoint",
    "spectral.spectral_test",
    "spectral.theorem_bounds",
    "lattice.dual_basis",
    "lattice.lll_reduce",
    "lattice.shortest_vector",
    "lattice.brute_force_shortest",
    "builder.build_range",
    "builder.build_single_dimension",
    "builder.validate",
    "lcg.check_max_period",
    "lcg.compute_potential",
    "numtheory.factorize",
    "numtheory.is_probable_prime",
    "empirical.frequency_test",
    "empirical.dump_sequence",
)
PACKAGE = "lcgspec"


class Sink:
    """Write-only text stream: byte count, sha256 and the last `tail` chars;
    the whole text too when `keep` is set."""

    _FLUSH_EVERY = 4096

    def __init__(self, keep: bool = False, tail: int = 512) -> None:
        self.keep = keep
        self.nbytes = 0
        self.tail = ""
        self._tail_len = tail
        self._hash = hashlib.sha256()
        self._parts: list[str] = []
        self._text: list[str] = []

    def write(self, s: str) -> int:
        self._parts.append(s)
        if len(self._parts) >= self._FLUSH_EVERY:
            self._drain()
        return len(s)

    def flush(self) -> None:
        pass

    def _drain(self) -> None:
        if not self._parts:
            return
        chunk = "".join(self._parts)
        self._parts.clear()
        data = chunk.encode()
        self._hash.update(data)
        self.nbytes += len(data)
        self.tail = (self.tail + chunk)[-self._tail_len:]
        if self.keep:
            self._text.append(chunk)

    def byte_count(self) -> int:
        self._drain()
        return self.nbytes

    def sha256(self) -> str:
        self._drain()
        return self._hash.hexdigest()

    def text(self) -> str:
        self._drain()
        return "".join(self._text)


class Tracer:
    """Span recorder.  Each span is [name, start, end, parent, query, note]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.query: str | None = None

    def enter(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.query, None])
        self._stack.append(i)
        return i

    def exit(self, i: int) -> None:
        self.spans[i][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "empirical.dump_sequence":
                out = kwargs["out"] if "out" in kwargs else args[1]
                before = out.byte_count()
            i = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(i)
            if name == "lattice.lll_reduce":
                tracer.spans[i][5] = result  # reduced basis, read in summary()
            elif name == "lattice.shortest_vector":
                tracer.spans[i][5] = result.norm_sq
            elif name == "empirical.dump_sequence":
                tracer.spans[i][5] = out.byte_count() - before
            return result

        return traced

    def install(self) -> list[tuple]:
        """Replace every traced function in every lcgspec module; returns the
        undo list for `uninstall`."""
        mods = [m for n, m in list(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]
        undo = []
        for layer in LAYERS:
            modname, fname = layer.split(".")
            orig = getattr(sys.modules[f"{PACKAGE}.{modname}"], fname)
            wrapped = self._wrap(layer, orig)
            for m in mods:
                if getattr(m, fname, None) is orig:
                    setattr(m, fname, wrapped)
                    undo.append((m, fname, orig))
        return undo

    @staticmethod
    def uninstall(undo: list[tuple]) -> None:
        for m, fname, orig in reversed(undo):
            setattr(m, fname, orig)

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self, root: str) -> dict:
        """Per-name self time and calls, the SVP share whose shortest LLL row
        was already minimal, dumped bytes, and the root spans' total time."""
        selfs = self.self_times()
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        lll_min: dict[int, int] = {}
        svp = hits = dumped = 0
        for i, (name, start, end, parent, _, note) in enumerate(self.spans):
            self_s[name] += selfs[i]
            calls[name] += 1
            if name == "lattice.lll_reduce" and note is not None:
                lll_min[parent] = min(sum(x * x for x in r) for r in note.rows)
            elif name == "empirical.dump_sequence":
                dumped += note
        for i, span in enumerate(self.spans):
            if span[0] == "lattice.shortest_vector":
                svp += 1
                hits += lll_min.get(i) == span[5]
        root_s = sum(s[2] - s[1] for s in self.spans if s[0] == root)
        return {"self_s": dict(self_s), "calls": dict(calls), "root_s": root_s,
                "self_total_s": sum(selfs), "min_self_s": min(selfs, default=0.0),
                "lll_row_is_min_ratio": hits / svp if svp else 0.0,
                "dump_bytes": dumped}

    def dump(self, fh, pass_index: int) -> None:
        """One JSON array per span: pass, name, start, end (seconds from the
        pass's first span), parent index, query id."""
        t0 = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent, query, _ in self.spans:
            fh.write(json.dumps([pass_index, name, round(start - t0, 9), round(end - t0, 9),
                                 parent, query]) + "\n")
