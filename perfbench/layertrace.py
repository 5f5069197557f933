"""Per-layer tracing of braidcalc from the outside.

The layers are the modules words, braids, faces, combing, cohen,
lifting, expr and cli.  ``Tracer.install`` wraps every public function
of a layer (its ``__all__``) and every public method of its public
classes, and rebinds each wrapped function in every braidcalc module
namespace that binds it, so calls from one module into another are
seen.  finite_models is left out: ``rp2`` is a fixed table lookup.

Every wrapped call is timed.  Its self time is its duration minus the
durations of the wrapped calls made directly inside it (one thread, so
those never overlap), and is added to its layer's total as the call
returns.  Counters are read at the same boundaries, outside the timed
interval.

A span is (name, start, end, parent).  The spans of the first pass of
the query list are kept in memory and written out when the run ends.  The
per-symbol helpers in ``LIGHT`` run up to a million times per pass;
they are timed and counted like every other call but kept out of the
span list, which would otherwise grow to tens of megabytes.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import sys
import time

LAYERS = ("words", "braids", "faces", "combing", "cohen", "lifting", "expr", "cli")
EXTRA = (
    "words.letters_out",
    "braids.endo_compositions",
    "braids.peak_image_letters",
    "combing.substitutions",
    "combing.peak_component_letters",
    "cohen.equality_checks",
    "lifting.output_letters",
)
LIGHT = frozenset({
    "words.a_alphabet", "words.x_alphabet", "words.alphabet_rank", "words.a_sym",
    "words.x_sym", "words.GroupWord.single", "words.GroupWord.identity",
    "words.GroupWord.is_identity", "words.GroupWord.letter_count",
    "words.GroupWord.syllable_count", "braids.FreeEndo.letter_size",
    "faces.face_on_pure_gen", "faces.coface_on_pure_gen", "combing.conj_rule",
})
_METHOD_DUNDERS = ("__mul__", "__pow__", "__call__")


def letters(value) -> int:
    """Letter count of a word-like result: crossings, or sum of |exponent|."""
    word = getattr(value, "word", value)
    syllables = getattr(word, "syllables", None)
    if syllables is not None:
        return sum(abs(e) for _, e in syllables)
    crossings = getattr(value, "letters", None)
    if isinstance(crossings, tuple):
        return len(crossings)
    components = getattr(value, "components", None)
    if components is not None:
        return sum(letters(c) for c in components)
    if isinstance(value, tuple):
        return sum(letters(v) for v in value)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.recording = True
        self.counters = {k: 0 for k in EXTRA}
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self._frames = [[0.0]]
        self._span_stack = [-1]
        self._comb_depth = 0
        self._lifting_depth = 0

    # -- wrapping --------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"braidcalc.{layer}") for layer in LAYERS}
        namespaces = [
            m for name, m in sys.modules.items()
            if name == "braidcalc" or name.startswith("braidcalc.")
        ]
        for layer, module in modules.items():
            for public in module.__all__:
                obj = getattr(module, public)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped = self._wrap(layer, public, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                setattr(ns, attr, wrapped)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _METHOD_DUNDERS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(layer, name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(layer, name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(layer, name, raw))

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        nid = len(self.names)
        self.names.append(full)
        li = LAYERS.index(layer)
        keep_span = full not in LIGHT
        post = self._post_hook(layer, name)
        is_comb = full == "combing.comb"
        is_lifting = layer == "lifting"
        tracer = self
        frames, span_stack = self._frames, self._span_stack
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            rec = keep_span and tracer.recording
            if rec:
                idx = len(names)
                names.append(nid)
                parents.append(span_stack[-1])
                starts.append(0.0)
                ends.append(0.0)
                span_stack.append(idx)
            if is_comb:
                tracer._comb_depth += 1
            if is_lifting:
                tracer._lifting_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                dt = t1 - t0
                self_s[li] += dt - frame[0]
                calls[li] += 1
                frames[-1][0] += dt
                if rec:
                    span_stack.pop()
                    starts[idx] = t0
                    ends[idx] = t1
                if is_comb:
                    tracer._comb_depth -= 1
                if is_lifting:
                    tracer._lifting_depth -= 1
            if post is not None:
                post(result)
                # the caller's self time excludes the counting too
                frames[-1][0] += clock() - t1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _post_hook(self, layer: str, name: str):
        c = self.counters

        def peak(key: str, value: int) -> None:
            if value > c[key]:
                c[key] = value

        if name == "GroupWord.substitute":
            def hook(result):
                n = letters(result)
                c["words.letters_out"] += n
                if self._comb_depth:
                    c["combing.substitutions"] += 1
                    peak("combing.peak_component_letters", n)
            return hook
        if layer == "words":
            def hook(result):
                if hasattr(result, "syllables"):
                    c["words.letters_out"] += letters(result)
            return hook
        if name == "FreeEndo.then":
            def hook(result):
                c["braids.endo_compositions"] += 1
                peak("braids.peak_image_letters", letters(result.images))
            return hook
        if name == "artin_endo":
            def hook(result):
                peak("braids.peak_image_letters", letters(result.images))
            return hook
        if name == "comb":
            def hook(result):
                peak("combing.peak_component_letters", max(map(letters, result.components), default=0))
            return hook
        if name in ("same_braid", "is_trivial"):
            def hook(result):
                c["cohen.equality_checks"] += 1
            return hook
        if layer == "lifting":
            def hook(result):
                if self._lifting_depth == 0:
                    c["lifting.output_letters"] += letters(result)
            return hook
        return None

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        """The recorded spans as JSON: the name table plus four columns."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            }, fh)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer calls and self seconds, per pass of the query list."""
        out: dict[str, float] = {}
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[k] / passes
            out[f"{layer}.self_s"] = self.self_s[k] / passes
        for key, value in self.counters.items():
            out[key] = value if "peak" in key else value / passes
        return out
