"""Spans around calls into the nlo modules, recorded from outside.

`Tracer.install` rebinds every public function of every nlo module in each
module namespace that bound it (so `nlo.cli.certify` and
`nlo.certificates.one_step_to` are both wrapped), and wraps `Word.__mul__`
and `Word.__pow__` on the class.  `Tracer.uninstall` puts the originals
back.  Generator functions are left alone: their work happens while the
caller iterates, so it is charged to the caller's span.

A span is (name, start, end, parent), kept in flat arrays while the run
lasts and written out once at the end.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ROOT_SPAN = "cli.main"
NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]
        self.active: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``observe(tracer, result)`` runs after the call returns, outside the
        span, to count what the call produced.
        """
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, active, clock = self._stack, self.active, time.perf_counter
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            active[name] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[name] -= 1
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every submodule of ``package``."""
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]
        wrapped: dict[int, object] = {}
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if not _traceable(obj, prefix) or attr.startswith("_"):
                    continue
                if id(obj) not in wrapped:
                    short = obj.__module__[len(prefix):]
                    name = f"{short}.{obj.__name__}"
                    if short == "cli" and obj.__name__ == "main":
                        name = ROOT_SPAN
                    wrapped[id(obj)] = self.wrap(name, obj, OBSERVERS.get(name))
                self._rebind(module, attr, wrapped[id(obj)])
        word = package.words.Word
        for attr, name in (("__mul__", "words.mul"), ("__pow__", "words.pow")):
            self._rebind(word, attr, self.wrap(name, getattr(word, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def summarize(self) -> dict[str, float]:
        """Per-name call count, busy time (sum of durations) and self time,
        plus per-module self time under ``<module>.self_s``."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_time = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p != NO_PARENT:
                self_time[p] -= dur[i]
        out: Counter[str] = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += dur[i]
            module = "cli" if name == ROOT_SPAN else name.split(".", 1)[0]
            out[f"{module}.self_s"] += self_time[i]
        out["ops"] = out[f"{ROOT_SPAN}.calls"]
        out.update(self.counts)
        return dict(out)

    def write(self, path: Path) -> None:
        """Header line of JSON (span names and count), then the name,
        parent, start and end arrays in native byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            header = {"names": self.names, "spans": len(self), "arrays": [
                "name_id:i", "parent:i", "start:d", "end:d"]}
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(handle)


def _traceable(obj, prefix: str) -> bool:
    return (
        inspect.isfunction(obj)
        and obj.__module__.startswith(prefix)
        and not inspect.isgeneratorfunction(obj)
    )


# -- counters taken from return values, at the layer boundary ------------


def _letters(tracer: Tracer, result) -> None:
    tracer.counts["words.letters_unrolled"] += len(result)


def _one_step_to(tracer: Tracer, result) -> None:
    tracer.counts["presentation.one_step_to.hits"] += bool(result)


def _apply_relation(tracer: Tracer, result) -> None:
    if tracer.active["presentation.one_step_to"]:
        tracer.counts["presentation.one_step_to.tries"] += 1


def _surgery(tracer: Tracer, result) -> None:
    tracer.counts["families.surgery_relator_letters"] += result.relators[-1].letter_length


def _fox(tracer: Tracer, result) -> None:
    tracer.counts["alexander.fox_terms"] += len(result.terms)


def _todd_coxeter(tracer: Tracer, result) -> None:
    tracer.counts["cosets.cosets_live"] += result.num_cosets
    if tracer.active["cosets.check_peripheral_commutation"]:
        tracer.counts["cosets.commutation.enumerations"] += 1
        tracer.counts["cosets.commutation.complete"] += result.is_complete()
    else:
        tracer.counts["cosets.order.enumerations"] += 1
        tracer.counts["cosets.order.capped"] += not result.is_complete()


def _commutation(tracer: Tracer, result) -> None:
    tracer.counts["cosets.commutation.batteries"] += 1
    tracer.counts["cosets.commutation.vacuous_batteries"] += result.complete_enumerations == 0


OBSERVERS = {
    "words.letters_list": _letters,
    "presentation.one_step_to": _one_step_to,
    "presentation.apply_relation": _apply_relation,
    "families.surgery_presentation": _surgery,
    "alexander.fox_derivative": _fox,
    "cosets.todd_coxeter": _todd_coxeter,
    "cosets.check_peripheral_commutation": _commutation,
}
