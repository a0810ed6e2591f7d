"""Per-layer tracing of sdpke from outside the library.

``Tracer.install`` wraps the public functions of each layer at run time:
class methods are patched on their classes, and a module function is
rebound in every ``sdpke`` module that holds it by name (``sdp_exp`` in
``protocol``, ``attacks`` and ``cli``; ``solve_mod`` in ``attacks`` and
``platforms``; ...).  ``uninstall`` puts every original back.

A wrapper records one span per call, (name, start, end, parent, round id),
in flat in-memory arrays that are written out only when the run ends.  The
span name's first component is the layer.  All spans come from one thread
(the benchmark unsets ``SDPKE_THREADS``), so calls nest strictly: a span's
children are disjoint and lie inside it, and its self time is its duration
minus the sum of its children's.  Hooks read arguments and results after a
call to count work where it happens (object-dtype kernel calls, holomorph
products per exponent, attack probes, serialized bytes).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

import stats

MARK = "__bench_traced__"
#: the reference loop the benchmark runs before each trial (clock.py); not sdpke work
REFERENCE_SPAN = "reference"

_SEMIRINGS = ("IntegersMod", "GroupRingScalars", "TropicalIntegers", "BitStrings")
_SEMIRING_METHODS = ("matmul", "add", "sub", "mul", "scale", "normalize", "permute_bits")
_MATRIX_METHODS = {
    "__matmul__": "matmul", "__add__": "add", "__sub__": "sub", "star": "star",
    "scale": "scale", "__eq__": "eq", "__getitem__": "getitem", "to_obj": "to_obj",
}
_ENDOMORPHISMS = (
    "Endomorphism", "IdentityEnd", "ConjugatorPower", "TwoSidedPower",
    "TropicalStarPower", "IteratedStarPower", "PermutationPower",
)
_PARAMS = ("GroupRingParams", "GLParams", "TropicalParams", "MakeParams", "MobsParams", "DhkeParams")


def _targets() -> list[tuple[str, str, str | None, str]]:
    """(span name, sdpke module, class or None for a module function, attribute)."""
    t = [(f"semirings.{m}", "semirings", c, m) for c in _SEMIRINGS for m in _SEMIRING_METHODS]
    t += [(f"matrices.{label}", "matrices", "Matrix", m) for m, label in _MATRIX_METHODS.items()]
    t += [(f"matrices.{f}", "matrices", None, f) for f in ("permute_bits", "inverse", "flatten")]
    t += [(f"holomorph.{f}", "holomorph", None, f) for f in ("sdp_exp", "holo_mul", "sequence_iter")]
    t += [
        (f"holomorph.end_{label}", "holomorph", c, m)
        for c in _ENDOMORPHISMS
        for m, label in (("power", "power"), ("compose", "compose"), ("__call__", "call"))
    ]
    t += [("linalg.span_add", "linalg", "EchelonSpan", "add")]
    t += [(f"linalg.{f}", "linalg", None, f) for f in ("solve_mod", "rref_mod", "rank_mod", "inverse_mod")]
    t += [
        ("platforms.random_params", "platforms", None, "random_params"),
        ("platforms.params_from_obj", "platforms", None, "params_from_obj"),
        ("platforms.validate_platform", "holomorph", None, "validate_platform"),
    ]
    t += [("platforms.build", "platforms", c, "build") for c in _PARAMS]
    t += [
        ("protocol.keygen", "protocol", None, "keygen"),
        ("protocol.derive", "protocol", None, "derive_key"),
        ("protocol.serialize", "protocol", "Transcript", "to_json"),
        ("protocol.serialize", "protocol", "Transcript", "to_obj"),
        ("protocol.parse", "protocol", "Transcript", "from_json"),
        ("protocol.parse", "protocol", "Transcript", "from_obj"),
    ]
    t += [
        ("attacks.dimension", "attacks", None, "dimension_attack"),
        ("attacks.telescope", "attacks", None, "make_telescoping_attack"),
        ("attacks.tropical", "attacks", None, "tropical_binsearch_attack"),
        ("attacks.mobs", "attacks", None, "mobs_solution_count"),
        ("attacks.build_span_basis", "attacks", None, "build_span_basis"),
        ("cli.main", "cli", None, "main"),
        ("groups.eq", "groups", "FiniteGroupTable", "__eq__"),
        ("permutations.mul", "permutations", "Permutation", "__mul__"),
        ("permutations.pow", "permutations", "Permutation", "__pow__"),
    ]
    return t


ATTACK_SPANS = ("attacks.dimension", "attacks.telescope", "attacks.tropical", "attacks.mobs")


# ---------------------------------------------------------------------------
# hooks: hook(tracer, args, result, ns) runs after the call returns, untraced


def _semiring_hook(tr, args, result, ns):
    if args[0].dtype is object:
        tr.counters["semirings.object_calls"] += 1


def _sdp_exp_hook(tr, args, result, ns):
    n = args[1]
    # double-and-add needs bit_length - 1 squarings and popcount - 1 products
    tr.counters["holomorph.holo_mul_min"] += n.bit_length() + bin(n).count("1") - 2


def _sequence_step_hook(tr, args, result, ns):
    tr.counters["holomorph.sequence_terms"] += 1


def _params_key(params) -> str:
    parts = [params.kind]
    for f in dataclasses.fields(params):
        v = getattr(params, f.name)
        if hasattr(v, "data"):  # Matrix
            v = v.data.tolist()
        elif hasattr(v, "product"):  # FiniteGroupTable
            v = v.product.tolist()
        elif hasattr(v, "cycles"):  # Permutation
            v = list(v)
        parts.append(v)
    return repr(parts)


def _build_hook(tr, args, result, ns):
    tr.params_seen.add(_params_key(args[0]))


def _serialize_hook(tr, args, result, ns):
    if isinstance(result, str):  # to_json; to_obj returns the dict it encodes
        tr.counters["protocol.serialize.bytes"] += len(result)


def _timing_hook(label):
    def hook(tr, args, result, ns):
        tr.samples[f"{label}.{args[0].name}"].append(ns)

    return hook


def _attack_hook(tr, args, result, ns):
    tr.counters["attacks.recovered"] += bool(result.success)


def _dimension_hook(tr, args, result, ns):
    _attack_hook(tr, args, result, ns)
    tr.counters["attacks.dimension.terms"] += result.work.sequence_terms_generated
    tr.counters["attacks.dimension.rank"] += result.work.rank


def _telescope_hook(tr, args, result, ns):
    _attack_hook(tr, args, result, ns)
    tr.counters["attacks.telescope.solves"] += result.work.linear_solves


def _tropical_hook(tr, args, result, ns):
    _attack_hook(tr, args, result, ns)
    tr.counters["attacks.tropical.probes"] += result.work.search_steps


def _mobs_hook(tr, args, result, ns):
    _attack_hook(tr, args, result, ns)
    g = args[0].g
    tr.counters["attacks.mobs.candidates"] += 1 << (g.rows * g.rows * g.ring.length)
    tr.counters["attacks.mobs.ns"] += ns


_HOOKS = {
    "holomorph.sdp_exp": _sdp_exp_hook,
    "holomorph.sequence_iter": _sequence_step_hook,
    "platforms.build": _build_hook,
    "protocol.serialize": _serialize_hook,
    "protocol.keygen": _timing_hook("keygen"),
    "protocol.derive": _timing_hook("derive"),
    "attacks.dimension": _dimension_hook,
    "attacks.telescope": _telescope_hook,
    "attacks.tropical": _tropical_hook,
    "attacks.mobs": _mobs_hook,
}


def _hook_for(span_name: str):
    if span_name.startswith("semirings."):
        return _semiring_hook
    return _HOOKS.get(span_name)


def _sdpke_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "sdpke" or name.startswith("sdpke.")]


def installed_wrappers() -> list[str]:
    """Qualified names of every tracing wrapper currently reachable in sdpke."""
    found = []
    for mod in _sdpke_modules():
        for key, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if getattr(getattr(member, "__func__", member), MARK, False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


# ---------------------------------------------------------------------------
# the tracer


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per closed span, in closing order; ids are assigned at opening
        self._id = array("q")
        self._name = array("H")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._round = array("q")
        self._stack: list[int] = []
        self._opened = 0
        self.round = -1
        self.paused = False
        self.counters: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        self.params_seen: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _record(self, sid, nid, t0, t1, parent):
        self._id.append(sid)
        self._name.append(nid)
        self._start.append(t0)
        self._end.append(t1)
        self._parent.append(parent)
        self._round.append(self.round)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens around its own code (rounds, trials)."""
        nid = self._intern(name)
        sid = self._opened
        self._opened += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._record(sid, nid, t0, t1, parent)

    def wrap(self, fn, name: str, hook=None):
        nid = self._intern(name)
        tracer = self

        # span() inlined: this runs on every kernel call, and a context manager costs more
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid = tracer._opened
            tracer._opened = sid + 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer._record(sid, nid, t0, t1, parent)
            if hook is not None:
                tracer.paused = True
                try:
                    hook(tracer, args, result, t1 - t0)
                finally:
                    tracer.paused = False
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def wrap_generator(self, fn, name: str, hook=None):
        """Trace a generator function: one span per item it produces."""
        step = self.wrap(next, name, hook)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def traced():
                while True:
                    try:
                        item = step(gen)
                    except StopIteration:
                        return
                    yield item

            return traced()

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {m.__name__: m for m in _sdpke_modules()}
        for name, module_name, cls_name, attr in _targets():
            module = modules[f"sdpke.{module_name}"]
            hook = _hook_for(name)
            if cls_name is not None:
                cls = getattr(module, cls_name)
                if attr not in vars(cls):
                    continue
                original = vars(cls)[attr]
                if isinstance(original, staticmethod):
                    replacement = staticmethod(self.wrap(original.__func__, name, hook))
                else:
                    replacement = self.wrap(original, name, hook)
                self._restore.append((cls, attr, original))
                setattr(cls, attr, replacement)
                continue
            original = getattr(module, attr)
            wrap = self.wrap_generator if attr == "sequence_iter" else self.wrap
            replacement = wrap(original, name, hook)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def table(self) -> SpanTable:
        if self._stack or len(self._id) != self._opened:
            raise RuntimeError("spans still open")
        order = np.argsort(np.frombuffer(self._id, dtype=np.int64), kind="stable")
        return SpanTable(
            names=list(self.names),
            name=np.frombuffer(self._name, dtype=np.uint16)[order].astype(np.int64),
            start=np.frombuffer(self._start, dtype=np.int64)[order],
            end=np.frombuffer(self._end, dtype=np.int64)[order],
            parent=np.frombuffer(self._parent, dtype=np.int64)[order],
            round=np.frombuffer(self._round, dtype=np.int64)[order],
        )


@dataclasses.dataclass
class SpanTable:
    """Closed spans indexed by id; ``parent`` holds a span id or -1."""

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    round: np.ndarray

    def __post_init__(self):
        child = np.nonzero(self.parent >= 0)[0]
        par = self.parent[child]
        if np.any(self.start[child] < self.start[par]) or np.any(self.end[child] > self.end[par]):
            raise ValueError("a child span reaches outside its parent")

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        dur = self.duration
        covered = np.zeros(len(dur), dtype=np.int64)
        child = self.parent >= 0
        np.add.at(covered, self.parent[child], dur[child])
        return dur - covered

    def mask(self, prefix: str) -> np.ndarray:
        """Spans whose name is ``prefix`` or starts with ``prefix + '.'``."""
        ids = [i for i, n in enumerate(self.names) if n == prefix or n.startswith(prefix + ".")]
        return np.isin(self.name, ids)

    def calls(self, prefix: str) -> int:
        """Spans under ``prefix``, not counting a span nested directly in a same-named one
        (a subclass method reaching its base through super())."""
        m = self.mask(prefix)
        same = np.zeros(len(m), dtype=bool)
        child = self.parent >= 0
        same[child] = self.name[self.parent[child]] == self.name[child]
        return int(np.sum(m & ~same))

    def save(self, path: str):
        np.savez_compressed(
            path, names=np.array(self.names), name=self.name, start=self.start,
            end=self.end, parent=self.parent, round=self.round,
        )


def layer_metrics(tracer: Tracer, t: SpanTable, platforms: tuple[str, ...], untraced_rate: float,
                  traced_rate: float, direct: dict, cli_bytes: tuple[int, int],
                  traced_scale: float = 1.0, direct_scale: float = 1.0) -> dict:
    """Per-round layer metrics of a traced phase (``t`` is its span table): name -> (value, unit, note).

    ``direct`` holds untraced keygen/derive timings the benchmark took itself;
    where it has none for a platform the traced keygen/derive spans stand in.
    ``cli_bytes`` is (report bytes, transcript bytes) written by the CLI.
    Span times are multiplied by ``traced_scale`` and ``direct`` times by
    ``direct_scale``, which put them on the reference speed (clock.py).
    """
    self_t = t.self_time()
    rounds = int(np.sum(t.mask("bench.round")))
    if rounds == 0:
        raise ValueError("no traced rounds")
    c = tracer.counters
    out: dict[str, tuple[float, str, str]] = {}

    def per_round(name, value, unit, note=""):
        out[name] = (value / rounds, unit, f"per round, {rounds} rounds{', ' + note if note else ''}")

    def ratio(name, num, den, unit="ratio", note=""):
        out[name] = (num / den if den else 0.0, unit, f"{num:g} / {den:g}{' ' + note if note else ''}")

    def ms(prefix):
        return int(np.sum(self_t[t.mask(prefix)])) / 1e6 * traced_scale

    for layer in ("semirings", "matrices", "holomorph", "linalg", "platforms", "attacks", "cli"):
        per_round(f"{layer}.self_ms", ms(layer), "ms")
    semiring_calls = t.calls("semirings")
    per_round("semirings.calls", semiring_calls, "count")
    per_round("semirings.normalize.calls", t.calls("semirings.normalize"), "count")
    ratio("semirings.object_share", c["semirings.object_calls"], semiring_calls, note="object-dtype kernel calls")
    per_round("matrices.calls", t.calls("matrices"), "count")
    per_round("groups.eq.calls", t.calls("groups.eq"), "count")
    per_round("holomorph.sdp_exp.calls", t.calls("holomorph.sdp_exp"), "count")
    holo_mul = t.calls("holomorph.holo_mul")
    per_round("holomorph.holo_mul.calls", holo_mul, "count")
    ratio("holomorph.holo_mul_over_min", holo_mul, c["holomorph.holo_mul_min"],
          note="holo_mul calls / sum over sdp_exp of bit_length+popcount-2")
    per_round("holomorph.end_power.calls", t.calls("holomorph.end_power"), "count")
    per_round("permutations.calls", t.calls("permutations"), "count")
    per_round("holomorph.sequence_terms", c["holomorph.sequence_terms"], "count")
    per_round("linalg.calls", t.calls("linalg"), "count")
    builds = t.calls("platforms.build")
    per_round("platforms.build.calls", builds, "count")
    ratio("platforms.build_per_params", builds, len(tracer.params_seen), note="builds / distinct params")

    for label in ("keygen", "derive"):
        for kind in platforms:
            key = f"{label}.{kind}"
            if direct.get(key):
                samples, source = [s * direct_scale for s in direct[key]], "untraced, timed by the benchmark"
            else:
                samples, source = [s / 1e9 * traced_scale for s in tracer.samples.get(key, [])], "traced spans"
            value = stats.median(samples) * 1e3 if samples else 0.0
            out[f"protocol.{label}.p50_ms.{kind}"] = (value, "ms", f"{len(samples)} samples, {source}")
    per_round("protocol.serialize.self_ms", ms("protocol.serialize"), "ms")
    per_round("protocol.serialize.bytes", c["protocol.serialize.bytes"], "bytes", "Transcript.to_json output")
    per_round("protocol.parse.self_ms", ms("protocol.parse"), "ms")

    attempts = sum(t.calls(name) for name in ATTACK_SPANS)
    ratio("attacks.tropical.probes_per_attack", c["attacks.tropical.probes"], t.calls("attacks.tropical"), "count")
    ratio("attacks.dimension.terms_over_rank", c["attacks.dimension.terms"], c["attacks.dimension.rank"])
    ratio("attacks.telescope.solves_per_attack", c["attacks.telescope.solves"], t.calls("attacks.telescope"), "count")
    ratio("attacks.mobs.candidates_per_s", c["attacks.mobs.candidates"], c["attacks.mobs.ns"] / 1e9 * traced_scale, "1/s",
          note="candidates / census seconds")
    ratio("attacks.recovered_share", c["attacks.recovered"], attempts, note="successful / attempted attacks")

    per_round("cli.main.calls", t.calls("cli.main"), "count")
    per_round("cli.report.bytes", cli_bytes[0], "bytes")
    per_round("cli.transcript.bytes", cli_bytes[1], "bytes")

    ratio("trace.overhead_ratio", traced_rate, untraced_rate,
          note="traced / untraced rounds per second on the reference speed")
    bench = t.mask("bench")
    round_ns = int(np.sum(t.duration[t.mask("bench.round")])) - int(np.sum(t.duration[t.mask(REFERENCE_SPAN)]))
    ratio("trace.unattributed_share", int(np.sum(self_t[bench])), round_ns,
          note="ns outside every wrapped call / ns in rounds, reference loops excluded")
    return out
