"""Self-test of the tracer, the tail-percentile rule and the reference clock.

Runs before every traced benchmark run, or alone from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import os
import sys

import numpy as np

import clock
import stats
import tracer as tr


def _check(cond, message: str):
    if not cond:
        raise AssertionError(message)


def check_tail_rule():
    value, pct = stats.tail(list(range(100, 0, -1)))
    _check((value, pct) == (90.0, 90.0), f"100 samples: expected p90 = 90, got p{pct} = {value}")
    value, pct = stats.tail(list(range(11)))
    _check(value == 0.0 and abs(pct - 100 / 11) < 1e-12, "11 samples: the smallest has ten beyond it")
    samples = [5.0] * 50 + [7.0] * 10
    _check(stats.tail(samples)[0] == 5.0, "ten equal maxima lie beyond the reported value")
    try:
        stats.tail(list(range(10)))
    except ValueError:
        pass
    else:
        raise AssertionError("10 samples leave no percentile with ten beyond it")


def _table(rows) -> tr.SpanTable:
    names = sorted({r[0] for r in rows})
    col = lambda i: np.array([r[i] for r in rows], dtype=np.int64)  # noqa: E731
    return tr.SpanTable(
        names=names,
        name=np.array([names.index(r[0]) for r in rows], dtype=np.int64),
        start=col(1), end=col(2), parent=col(3), round=np.zeros(len(rows), dtype=np.int64),
    )


def check_span_tree():
    # (name, start, end, parent id); ids are row positions
    t = _table([
        ("bench.round", 0, 100, -1),
        ("x.a", 10, 50, 0),
        ("y.b", 20, 30, 1),
        ("x.a", 35, 45, 1),  # nested in a same-named span, as super() gives
        ("y.b", 60, 90, 0),
        ("xy.c", 92, 95, 0),
    ])
    _check(t.self_time().tolist() == [27, 20, 10, 10, 30, 3], f"self times {t.self_time().tolist()}")
    _check(int(t.self_time().sum()) == 100, "self times must add up to the root's duration")
    _check(t.calls("x") == 1, "a span inside a same-named parent is not a second call")
    _check(t.calls("y") == 2 and t.calls("y.b") == 2, "calls by layer and by name")
    _check(t.calls("xy") == 1, "layer prefixes match whole name components only")
    try:
        _table([("bench.round", 0, 10, -1), ("x.a", 5, 12, 0)])
    except ValueError:
        pass
    else:
        raise AssertionError("a child ending after its parent must be refused")


def check_wrappers():
    tracer = tr.Tracer()
    seen = []

    def leaf(x):
        return x + 1

    def mid(x):
        return leaf(leaf(x))

    def gen(n):
        yield from range(n)

    leaf = tracer.wrap(leaf, "k.leaf", lambda t, args, result, ns: seen.append((args, result)))
    mid = tracer.wrap(mid, "m.mid")
    gen = tracer.wrap_generator(gen, "m.gen")
    with tracer.span("bench.round"):
        _check(mid(1) == 3, "wrapped functions return their result")
        _check(list(gen(3)) == [0, 1, 2], "wrapped generators yield every item")
    _check(seen == [((1,), 2), ((2,), 3)], f"hooks see arguments and results: {seen}")
    t = tracer.table()
    names = [t.names[i] for i in t.name]
    _check(names == ["bench.round", "m.mid", "k.leaf", "k.leaf", "m.gen", "m.gen", "m.gen", "m.gen"],
           f"spans in opening order: {names}")
    _check(t.parent.tolist() == [-1, 0, 1, 1, 0, 0, 0, 0], f"parents {t.parent.tolist()}")
    _check(int(t.self_time().sum()) == int(t.duration[0]), "self times partition the round")
    _check(bool(np.all(t.self_time() >= 0)), "self times are non-negative")


def check_install():
    import sdpke.protocol
    from sdpke import attacks, cli, holomorph

    original = holomorph.sdp_exp
    tracer = tr.Tracer()
    tracer.install()
    try:
        for mod in (holomorph, sdpke.protocol, attacks, cli):
            _check(getattr(mod.sdp_exp, tr.MARK, False), f"sdp_exp not rebound in {mod.__name__}")
        _check(getattr(sdpke.protocol.Transcript.__dict__["from_json"].__func__, tr.MARK, False),
               "static methods are wrapped in place")
        _check(len(tr.installed_wrappers()) > 50, "the untraced-run guard sees the wrappers")
    finally:
        tracer.uninstall()
    _check(tr.installed_wrappers() == [], f"left installed: {tr.installed_wrappers()}")
    _check(attacks.sdp_exp is original and cli.sdp_exp is original, "uninstall restores the originals")


def check_clock():
    _check(clock.scaled(6e-3, 2e-3) == 3e-3, "a trial three times the reference takes 3 ms on the reference speed")
    _check(clock.scaled(6e-3, 2e-3) == clock.scaled(3e-3, 1e-3), "scaled times do not move with the host's speed")
    _check(clock.time_reference() > 0, "the reference loop takes time")


def run_all():
    check_tail_rule()
    check_clock()
    check_span_tree()
    check_wrappers()
    check_install()


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    run_all()
    print("selftest ok")
