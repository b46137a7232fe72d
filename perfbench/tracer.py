"""Wrap lpldpc functions from outside the package and record spans.

``Patcher`` replaces a function in every ``lpldpc`` module that holds a
reference to it (the defining module and every ``from .x import f`` caller),
so calls made inside the package go through the wrapper too. ``Tracer`` keeps
spans in memory as ``[name, start, end, parent, trial, error, extra]`` lists,
writes them out at the end of a run, and derives per-layer metrics from them.
Nothing under ``src/`` is edited; ``remove`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import weakref

import numpy as np

NAME, START, END, PARENT, TRIAL, ERROR, EXTRA = range(7)

# (span name, defining module, attribute). Order does not matter: each
# wrapper is installed wherever callers look the original up.
TRACED = (
    ("channel.transmit_awgn", "lpldpc.channel", "transmit_awgn"),
    ("channel.normalized_llr", "lpldpc.channel", "normalized_llr"),
    ("channel.apply_map", "lpldpc.channel", "apply_map"),
    ("lpdec.lp_decode", "lpldpc.lpdec", "lp_decode"),
    ("lpdec.build_constraints", "lpldpc.lpdec", "build_constraints"),
    ("lpdec.membership", "lpldpc.lpdec", "membership"),
    ("simplex.solve", "lpldpc.simplex", "solve"),
    ("witness.witness_search", "lpldpc.witness", "witness_search"),
    ("witness.find_delta_matching", "lpldpc.witness", "find_delta_matching"),
    ("witness.boundary_set", "lpldpc.witness", "boundary_set"),
    ("witness.weights_from_matching", "lpldpc.witness", "weights_from_matching"),
    ("witness.check_feasible", "lpldpc.witness", "check_feasible"),
    ("witness.check_expansion", "lpldpc.witness", "check_expansion"),
    ("pseudo.canonical_completion", "lpldpc.pseudo", "canonical_completion"),
    ("pseudo.max_scaling_alpha", "lpldpc.pseudo", "max_scaling_alpha"),
    ("tanner.generate_regular", "lpldpc.tanner", "generate_regular"),
    ("tanner.bfs_tiers", "lpldpc.tanner", "bfs_tiers"),
    ("tanner.parse_alist", "lpldpc.tanner", "parse_alist"),
    ("simcli.run_wer", "lpldpc.simcli", "run_wer"),
    ("simcli.run_witness_rate", "lpldpc.simcli", "run_witness_rate"),
    ("simcli.run_pseudo_scan", "lpldpc.simcli", "run_pseudo_scan"),
    ("simcli.emit_csv", "lpldpc.simcli", "emit_csv"),
)
DRIVERS = ("simcli.run_wer", "simcli.run_witness_rate", "simcli.run_pseudo_scan")
SIMPLEX_ROLES = ("main", "probe", "witness")


class Patcher:
    """Replace functions in every loaded lpldpc module; undo in reverse."""

    def __init__(self):
        self._undo = []

    def replace(self, modname, attr, make_wrapper):
        original = getattr(importlib.import_module(modname), attr)
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if (name == "lpldpc" or name.startswith("lpldpc.")) and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, original))

    def restore(self):
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)


def _tableau_bytes(args, kwargs):
    a = np.asarray(kwargs.get("a", args[1] if len(args) > 1 else ()))
    b = np.asarray(kwargs.get("b", args[2] if len(args) > 2 else ()))
    if a.ndim != 2:
        return 0
    rows = a.shape[0]
    cols = a.shape[1] + rows + int((b < 0).sum())
    return (rows + 1) * (cols + 1) * 8


class Tracer:
    """In-memory span recorder. ``trial`` is set by the trial clock."""

    def __init__(self):
        self.spans = []
        self.trial = -1
        self._stack = []
        self._patcher = Patcher()
        self._live_constraints = {}
        self.constraints_peak_bytes = 0

    def install(self):
        for name, modname, attr in TRACED:
            self._patcher.replace(modname, attr, functools.partial(self._wrap, name))

    def remove(self):
        self._patcher.restore()

    def abort_open_spans(self, error):
        """Close spans left open by an exception raised outside a wrapper."""
        now = time.perf_counter()
        for idx in self._stack:
            span = self.spans[idx]
            span[END] = now
            span[ERROR] = span[ERROR] or error
        self._stack.clear()

    def _wrap(self, name, fn):
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.trial, None, None]
            self.spans.append(span)
            self._stack.append(idx)
            if name == "simplex.solve":
                span[EXTRA] = {"tableau_bytes": _tableau_bytes(args, kwargs)}
            misses = cache_info().misses if cache_info else 0
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                if self._stack and self._stack[-1] == idx:
                    self._stack.pop()
            self._record(name, span, result, cache_info and cache_info().misses - misses)
            return result

        return wrapper

    def _record(self, name, span, result, missed):
        if name == "simplex.solve":
            span[EXTRA]["pivots"] = int(result.iterations)
        elif name == "lpdec.build_constraints":
            span[EXTRA] = {"miss": bool(missed)}
            self._track_constraints(result)
        elif name == "lpdec.lp_decode":
            span[EXTRA] = {"status": result.status}
        elif name == "witness.find_delta_matching":
            span[EXTRA] = {"found": result is not None}
        elif name == "witness.check_feasible":
            span[EXTRA] = {"ok": bool(result.ok)}
        elif name == "witness.check_expansion":
            span[EXTRA] = {"subsets": int(result.subsets_checked)}

    def _track_constraints(self, cons):
        # Peak total of constraint matrices alive at once (the lru cache
        # holds them); dead entries drop out through their weak references.
        live = self._live_constraints
        for key in [k for k, (ref, _) in live.items() if ref() is None]:
            del live[key]
        if id(cons) not in live:
            live[id(cons)] = (weakref.ref(cons), int(cons.a.nbytes))
        total = sum(nbytes for _, nbytes in live.values())
        self.constraints_peak_bytes = max(self.constraints_peak_bytes, total)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


TAIL_BLOCK = 250


def tail(values):
    """(value, percentile) of the tail of ``values``, given in trial order.

    The values are cut into consecutive blocks of at least TAIL_BLOCK (one
    block when there are fewer); in each block the tail is the highest
    percentile that still has at least ten samples beyond it, and the median
    over blocks is reported with the blocks' mean percentile. Ten samples or
    fewer give the maximum.

    A burst of load on a shared machine stretches every trial inside it, and
    the slowest few per thousand of a whole run are mostly such trials. The
    median over blocks leaves out the blocks a burst hit: over ten seeds of
    wer-n24 it spread 3% on a calm machine and 22% on a noisy one, against
    10% and 38% for one percentile over the whole run.
    """
    xs = list(values)
    if not xs:
        return 0.0, 0.0
    if len(xs) <= 10:
        return max(xs), 100.0
    nb = max(1, len(xs) // TAIL_BLOCK)
    blocks = [sorted(xs[i * len(xs) // nb:(i + 1) * len(xs) // nb]) for i in range(nb)]
    return (statistics.median(b[-11] for b in blocks),
            statistics.mean(100.0 * (len(b) - 10) / len(b) for b in blocks))


# Per-layer metrics: (name, unit, better). "/trial" quantities are totals
# over the run divided by the trials attempted.
PER_LAYER = (
    ("channel.ms_per_trial", "ms/trial", "lower"),
    ("lpdec.lp_decode.ms_p50", "ms", "lower"),
    ("lpdec.lp_decode.ms_tail", "ms", "lower"),
    ("lpdec.lp_decode.self_ms", "ms/trial", "lower"),
    ("lpdec.build_constraints.calls", "1/trial", "lower"),
    ("lpdec.build_constraints.misses", "1/trial", "lower"),
    ("lpdec.build_constraints.ms", "ms/trial", "lower"),
    ("lpdec.constraints_mb", "MB", "lower"),
    ("lpdec.membership.calls", "1/trial", "lower"),
    ("lpdec.membership.ms", "ms/trial", "lower"),
    *((f"simplex.{role}.{q}", unit, "lower") for role in SIMPLEX_ROLES for q, unit in (
        ("ms", "ms/trial"), ("pivots", "1/call"), ("calls", "1/trial"), ("tableau_mb", "MB"))),
    ("simplex.probe.tie_ratio", "ratio", "lower"),
    ("simplex.probe.decode_share", "ratio", "lower"),
    *((f"simplex.abandoned.{role}", "count", "lower") for role in SIMPLEX_ROLES),
    ("witness.witness_search.ms", "ms/trial", "lower"),
    ("witness.witness_search.self_ms", "ms/trial", "lower"),
    ("witness.find_delta_matching.ms", "ms/trial", "lower"),
    ("witness.matching.found_ratio", "ratio", "higher"),
    ("witness.boundary_set.ms", "ms/trial", "lower"),
    ("witness.weights_from_matching.ms", "ms/trial", "lower"),
    ("witness.check_feasible.ms", "ms/trial", "lower"),
    ("witness.check_feasible.ok_ratio", "ratio", "higher"),
    ("witness.check_expansion.ms", "ms/trial", "lower"),
    ("witness.check_expansion.subsets", "1/call", "lower"),
    ("pseudo.canonical_completion.ms", "ms/trial", "lower"),
    ("pseudo.max_scaling_alpha.self_ms", "ms/trial", "lower"),
    ("tanner.generate_regular.ms", "ms/trial", "lower"),
    ("tanner.generate_regular.calls", "1/trial", "lower"),
    ("tanner.bfs_tiers.ms", "ms/trial", "lower"),
    ("tanner.parse_alist.ms", "ms/trial", "lower"),
    ("simcli.driver.self_ms", "ms/trial", "lower"),
    ("simcli.emit_csv.ms", "ms/trial", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def layer_metrics(spans, trials, constraints_peak_bytes):
    """Per-layer values (without the tracing overhead) derived from spans."""
    per_trial = 1.0 / max(trials, 1)
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def total_ms(name, self_only=False):
        return 1e3 * sum(dur[i] - (child_time[i] if self_only else 0.0)
                         for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def ratio(name, key):
        idx = [i for i in by_name.get(name, ()) if spans[i][EXTRA] is not None]
        return sum(bool(spans[i][EXTRA][key]) for i in idx) / len(idx) if idx else 0.0

    # Split solves by caller: the first solve inside lp_decode is the main LP,
    # the second the tie probe over the optimal face.
    roles = {r: [] for r in SIMPLEX_ROLES}
    solves_in = {}
    for i in by_name.get("simplex.solve", ()):
        p = spans[i][PARENT]
        caller = spans[p][NAME] if p >= 0 else None
        if caller == "lpdec.lp_decode":
            k = solves_in[p] = solves_in.get(p, -1) + 1
            roles["main" if k == 0 else "probe"].append(i)
        elif caller == "witness.witness_search":
            roles["witness"].append(i)

    decodes = by_name.get("lpdec.lp_decode", ())
    done = [i for i in decodes if spans[i][ERROR] is None]
    probe_of = {spans[i][PARENT]: i for i in roles["probe"]}
    ties = sum(1 for i in done if spans[i][EXTRA]["status"] == "tie" and i in probe_of)
    done_ms = [1e3 * dur[i] for i in done]
    probe_in_done = sum(dur[probe_of[i]] for i in done if i in probe_of)

    out = {
        "channel.ms_per_trial": per_trial * sum(
            total_ms(f"channel.{f}") for f in ("transmit_awgn", "normalized_llr", "apply_map")),
        "lpdec.lp_decode.ms_p50": statistics.median(done_ms) if done_ms else 0.0,
        "lpdec.lp_decode.ms_tail": tail(done_ms)[0],
        "lpdec.lp_decode.self_ms": per_trial * total_ms("lpdec.lp_decode", self_only=True),
        "lpdec.build_constraints.calls": per_trial * calls("lpdec.build_constraints"),
        "lpdec.build_constraints.misses": per_trial * sum(
            1 for i in by_name.get("lpdec.build_constraints", ())
            if spans[i][EXTRA] is not None and spans[i][EXTRA]["miss"]),
        "lpdec.build_constraints.ms": per_trial * total_ms("lpdec.build_constraints"),
        "lpdec.constraints_mb": constraints_peak_bytes / 1e6,
        "lpdec.membership.calls": per_trial * calls("lpdec.membership"),
        "lpdec.membership.ms": per_trial * total_ms("lpdec.membership"),
        "simplex.probe.tie_ratio": ties / len(roles["probe"]) if roles["probe"] else 0.0,
        "simplex.probe.decode_share": probe_in_done / sum(dur[i] for i in done) if done else 0.0,
    }
    for role, idx in roles.items():
        finished = [i for i in idx if spans[i][ERROR] is None]
        out[f"simplex.{role}.ms"] = per_trial * 1e3 * sum(dur[i] for i in idx)
        out[f"simplex.{role}.pivots"] = (
            sum(spans[i][EXTRA]["pivots"] for i in finished) / len(finished) if finished else 0.0)
        out[f"simplex.{role}.calls"] = per_trial * len(idx)
        out[f"simplex.{role}.tableau_mb"] = max(
            (spans[i][EXTRA]["tableau_bytes"] for i in idx), default=0) / 1e6
        out[f"simplex.abandoned.{role}"] = len(idx) - len(finished)
    for name in ("witness_search", "find_delta_matching", "boundary_set",
                 "weights_from_matching", "check_feasible", "check_expansion"):
        out[f"witness.{name}.ms"] = per_trial * total_ms(f"witness.{name}")
    out["witness.witness_search.self_ms"] = per_trial * total_ms("witness.witness_search", True)
    out["witness.matching.found_ratio"] = ratio("witness.find_delta_matching", "found")
    out["witness.check_feasible.ok_ratio"] = ratio("witness.check_feasible", "ok")
    expansions = [spans[i][EXTRA]["subsets"] for i in by_name.get("witness.check_expansion", ())
                  if spans[i][EXTRA] is not None]
    out["witness.check_expansion.subsets"] = (
        sum(expansions) / len(expansions) if expansions else 0.0)
    out["pseudo.canonical_completion.ms"] = per_trial * total_ms("pseudo.canonical_completion")
    out["pseudo.max_scaling_alpha.self_ms"] = per_trial * total_ms("pseudo.max_scaling_alpha", True)
    for name in ("generate_regular", "bfs_tiers", "parse_alist"):
        out[f"tanner.{name}.ms"] = per_trial * total_ms(f"tanner.{name}")
    out["tanner.generate_regular.calls"] = per_trial * calls("tanner.generate_regular")
    out["simcli.driver.self_ms"] = per_trial * sum(total_ms(d, True) for d in DRIVERS)
    out["simcli.emit_csv.ms"] = per_trial * total_ms("simcli.emit_csv")
    return out
