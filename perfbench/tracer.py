"""Per-layer spans recorded from outside finfree by wrapping its functions.

`Tracer.install()` replaces each listed function with a wrapper wherever
finfree holds a reference to it: the defining module, every module that
imported the name, the package namespace, and default arguments such as
`wg_fn=weingarten`. A span (name, start, end, parent) is kept in flat arrays
while `active` is true, and `write()` saves them at the end of the run.
`self_times()` derives each function's self time as a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time
import types
from pathlib import Path

FUNCTIONS = {
    "cli": ("main",),
    "polynomials": ("commutator_poly", "boxminus", "boxtimes", "z_poly",
                    "from_spectrum", "pretty", "commutator_coefficient"),
    "symfunc": ("elementary_symmetric", "e_to_m", "m_to_e", "eval_monomial",
                "eval_quasisym"),
    "symgroup": ("character", "c_constant", "c_constant_bruteforce", "inverse_kostka"),
    "partitions": ("kostka", "partitions_of", "set_partitions"),
    "weingarten": ("weingarten", "integrate_moment"),
    "oracle": ("brute_force_expected_ek", "weingarten_gram_inverse",
               "gram_identity_residual", "identity_leftdep", "identity_rightdep"),
    "immanants": ("immanant_direct", "immanant_gj", "imm_delta_minus"),
    "montecarlo": ("haar_batch", "mc_charpoly", "mc_entry_moments",
                   "mc_conjugation_mean", "within_band"),
}
# Methods of MonicPoly, reported under the polynomials module.
METHODS = ("from_spectrum", "pretty")
# Metric name -> (module, attribute of the lru_cache'd function behind it).
CACHES = {
    "weingarten.weingarten": ("weingarten", "weingarten"),
    "symgroup.character": ("symgroup", "_character_rec"),
    "partitions.kostka": ("partitions", "_kostka_cached"),
}
SUITES = ("convolution", "flagship", "oddk", "weingarten", "immanant",
          "cconst", "identities", "haar")

NO_PARENT = -1


def span_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]


def per_layer_metric_names() -> list:
    """Every per-layer metric a traced run reports, in BENCHMARK.json order."""
    names = []
    for span in span_names():
        names += [f"{span}.self_s", f"{span}.calls"]
    names += [f"verify.{suite}.s" for suite in SUITES]
    for cache in CACHES:
        names += [f"{cache}.cache_hits", f"{cache}.cache_misses"]
    names.append("trace.window_s")
    return names


def _finfree_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "finfree" or name.startswith("finfree.")]


def _functions_in(module) -> list:
    """Plain functions defined in a module, including those on its classes."""
    found = []
    for value in vars(module).values():
        if isinstance(value, types.FunctionType):
            found.append(value)
        elif isinstance(value, type) and value.__module__ == module.__name__:
            for attr in vars(value).values():
                func = getattr(attr, "__func__", attr)
                if isinstance(func, types.FunctionType):
                    found.append(func)
    return found


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [NO_PARENT]
        self.active = False
        self.caches = {}

    def _wrap(self, name: str, func):
        ident = self.names.index(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            index = len(self.start)
            self.name_id.append(ident)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self._stack.pop()

        return wrapper

    def install(self):
        """Wrap every listed function wherever finfree refers to it."""
        # finfree/__init__ rebinds finfree.weingarten to the function, so the
        # modules are reached through importlib, not as package attributes.
        # All of them load first, so that every importer is patched.
        for mod_name in FUNCTIONS:
            importlib.import_module(f"finfree.{mod_name}")
        modules = _finfree_modules()
        for cache_name, (mod, attr) in CACHES.items():
            self.caches[cache_name] = getattr(sys.modules[f"finfree.{mod}"], attr)
        replaced = {}
        for mod_name, fns in FUNCTIONS.items():
            module = sys.modules[f"finfree.{mod_name}"]
            for fn in fns:
                name = f"{mod_name}.{fn}"
                if fn in METHODS:
                    cls = module.MonicPoly
                    original = vars(cls)[fn]
                    if isinstance(original, classmethod):
                        setattr(cls, fn, classmethod(self._wrap(name, original.__func__)))
                    else:
                        setattr(cls, fn, self._wrap(name, original))
                    continue
                original = getattr(module, fn)
                wrapper = self._wrap(name, original)
                replaced[id(original)] = wrapper
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapper)
        # Default arguments bind at definition time and bypass the module
        # attribute, e.g. wg_fn=weingarten in oracle and verify.
        for module in modules:
            for func in _functions_in(module):
                if func.__defaults__:
                    func.__defaults__ = tuple(
                        replaced.get(id(v), v) for v in func.__defaults__)
                if func.__kwdefaults__:
                    func.__kwdefaults__ = {
                        k: replaced.get(id(v), v) for k, v in func.__kwdefaults__.items()}

    def cache_stats(self) -> dict:
        out = {}
        for name, func in self.caches.items():
            info = func.cache_info()
            out[f"{name}.cache_hits"] = info.hits
            out[f"{name}.cache_misses"] = info.misses
        return out

    def write(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        for field in ("name_id", "parent", "start", "end"):
            with open(directory / f"{field}.bin", "wb") as fh:
                getattr(self, field).tofile(fh)
        (directory / "names.json").write_text(json.dumps(self.names))


def read_spans(directory: Path) -> tuple:
    names = json.loads((directory / "names.json").read_text())
    arrays = {}
    for field, code in (("name_id", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
        arr = array.array(code)
        data = (directory / f"{field}.bin").read_bytes()
        arr.frombytes(data)
        arrays[field] = arr
    return names, arrays


def self_times(names: list, spans: dict) -> dict:
    """Per span name: (summed self seconds, call count).

    Spans of one thread nest, so the children of a span never overlap and
    the part of its interval they cover is the sum of their durations.
    """
    count = len(spans["start"])
    duration = [spans["end"][i] - spans["start"][i] for i in range(count)]
    covered = [0.0] * count
    for i in range(count):
        parent = spans["parent"][i]
        if parent != NO_PARENT:
            covered[parent] += duration[i]
    totals = {name: [0.0, 0] for name in names}
    for i in range(count):
        entry = totals[names[spans["name_id"][i]]]
        entry[0] += duration[i] - covered[i]
        entry[1] += 1
    return {name: (s, c) for name, (s, c) in totals.items()}
