"""Timing and counting wrappers around the program's public entry points.

Used by the traced run only.  Each wrapper records a span per call and adds
its calls, total seconds and self seconds (total minus the time of spans
opened inside it) to a per-name table.  A wrapper is bound where the caller
looks the name up: a function imported by name into another module is
rebound in that module as well, and methods are rebound on their class.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from elliptic_dedekind import cli, cosets, dedekind, density, lattice, verification

__all__ = ["Tracer"]

SUITES = tuple(name for name in verification.SUITE_NAMES if name != "all")


class Tracer:
    """Installs the wrappers on entry and restores the original names on exit."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._open: list[list] = []  # [name, child_seconds] of each open span
        self._saved: list[tuple] = []

    # -- reading ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn, on_return=None):
        open_spans, spans = self._open, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            open_spans.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][1] += elapsed
                stat = spans.setdefault(name, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, on_return=None) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, on_return))

    def _inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._open)

    def _count_e1(self, args, result) -> None:
        self.counts["e1_points"] += result.size
        if self._inside("dedekind.d_sum"):
            self.counts["e1_points_in_d_sum"] += result.size

    def _count_reps(self, args, result) -> None:
        self.counts["reps"] += len(result)
        # A transversal of L/kL has exactly N(k) members.
        if len(result) != args[0].k.norm():
            self.counts["reps_mismatch"] += 1

    def _count_checks(self, args, result) -> None:
        self.counts["checks"] += len(result)

    def __enter__(self) -> "Tracer":
        patch = self._patch
        patch(cli, "main", "cli")
        patch(lattice.Lattice, "__init__", "lattice.construct")
        patch(lattice.Lattice, "e1_many", "lattice.e1", self._count_e1)
        patch(cosets.CosetSystem, "__init__", "cosets.system")
        patch(cosets.CosetSystem, "reps", "cosets.reps", self._count_reps)
        for module in (cosets, dedekind):
            patch(module, "mult_matrix", "cosets.mult_matrix")
        for module in (cli, dedekind, verification):
            patch(module, "d_sum", "dedekind.d_sum")
        for module in (dedekind, verification):
            patch(module, "phi", "dedekind.phi")
        patch(dedekind, "egcd_order", "ring.egcd_order")
        for module in (cli, density):
            patch(module, "find_prime", "density.find_prime")
            patch(module, "construct", "density.construct")
        patch(density, "is_probable_prime", "ring.is_probable_prime")
        for suite in SUITES:
            patch(verification, f"run_{suite}_suite", f"verification.{suite}", self._count_checks)
        for oracle in ("weierstrass_zeta_direct", "e2_hecke_limit"):
            patch(verification, oracle, "oracles")
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
