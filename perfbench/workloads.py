"""The four benchmark workloads: set-up, one measured unit, output checks.

Each workload is a closed loop with one client: the next unit of work starts
when the previous one has returned. A unit is one call of a public ``sim``
driver (``run_wer``, ``run_witness_rate``, ``run_pseudo_scan``) or, for
``wer-n48``, one ``lp_decode``. Every lpldpc function is looked up through
its module at call time, so the tracer's wrappers see the calls; this also
lets the parent process import this module without the package on its path.

A trial is one decode (``wer-*``), one witness pipeline pass
(``witness-dv25``) or one tier completion (``pseudo-scan``). The trial clock
stamps the end of each trial and arms a per-trial wall-clock budget with
SIGALRM; a trial past its budget is abandoned with ``TrialBudgetExceeded``.
When a driver aborts, every trial of that call it did not finish is counted
as failed too.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import signal
import time

import numpy as np

DEFAULT_SEED = 1
# Every workload with a fixed graph builds it from this seed, and the
# workload seed drives only the noise: across graphs of one shape the cost of
# a trial varies about twofold, which would swamp any change under test. With
# noise seed 1, wer-n48 then holds the known IterationLimitError decode
# (sigma2 = 0.5, trial 3).
GRAPH_SEED = 3


class TrialBudgetExceeded(Exception):
    """A trial ran past its wall-clock budget and was abandoned."""


class TrialClock:
    """Wall time of each trial, and the per-trial budget.

    ``start`` opens the first trial of a unit, ``mark`` closes the current
    trial and opens the next, ``fail`` closes it as failed and books the
    trials its driver will no longer run, ``stop`` disarms the budget.
    """

    def __init__(self, budget_s, tracer=None):
        self.budget_s = float(budget_s)
        self.tracer = tracer
        self.records = []  # [ms or None, error name or None, unit, position]
        self._last = None
        self._unit = 0
        self._pos = 0
        signal.signal(signal.SIGALRM, self._expire)

    def _expire(self, signum, frame):
        raise TrialBudgetExceeded(f"trial exceeded its {self.budget_s:g} s budget")

    def _open(self, now):
        self._last = now
        if self.tracer is not None:
            self.tracer.trial = len(self.records)
        signal.setitimer(signal.ITIMER_REAL, self.budget_s)

    def start(self, unit):
        self._unit, self._pos = unit, 0
        self._open(time.perf_counter())

    def mark(self):
        now = time.perf_counter()
        self.records.append([1e3 * (now - self._last), None, self._unit, self._pos])
        self._pos += 1
        self._open(now)

    def fail(self, exc, planned):
        """The open trial raised ``exc``; its driver skips the rest of ``planned``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        now = time.perf_counter()
        if self.tracer is not None:
            self.tracer.abort_open_spans(type(exc).__name__)
        self.records.append([1e3 * (now - self._last), type(exc).__name__, self._unit, self._pos])
        for pos in range(self._pos + 1, planned):
            self.records.append([None, "DriverAborted", self._unit, pos])

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def unit_seed(seed, k):
    """Master seed of the k-th driver call of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence((int(seed), int(k))).generate_state(1)[0])


def _drive(clock, k, planned, call):
    """Run one driver call as unit ``k``; returns its result or None on failure."""
    clock.start(k)
    try:
        return call()
    except Exception as exc:  # any raise fails the trial; the run goes on
        clock.fail(exc, planned)
        return None
    finally:
        clock.stop()


def _csv_digest(rows, workdir):
    import lpldpc.simcli as simcli

    path = os.path.join(workdir, "unit.csv")
    simcli.emit_csv(rows, path)
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), list(csv.DictReader(io.StringIO(data.decode())))


class Workload:
    name = ""
    budget_s = 0.0
    # Functions whose return ends a trial, as (module, attribute).
    trial_end = ("lpldpc.simcli", "lp_decode")

    def setup(self, seed, workdir):
        raise NotImplementedError

    def run_unit(self, k, clock):
        """Run unit ``k``; returns (output, violations)."""
        raise NotImplementedError


class WerN24(Workload):
    """``run_wer`` on a (3,4) n=24 graph: many small LPs, real ties."""

    name = "wer-n24"
    budget_s = 0.5
    maps = ("trivial", "threshold:1.0", "quantize2:1")
    sigma2 = (0.5, 0.8)
    trials = 4

    def setup(self, seed, workdir):
        import lpldpc.lpdec as lpdec
        from lpldpc.channel import MapSpec
        from lpldpc.simcli import GraphSource

        self.seed, self.workdir = seed, workdir
        self.graph = GraphSource(n=24, dv=3, dc=4, seed=GRAPH_SEED)
        self.map_specs = tuple(MapSpec.parse(m) for m in self.maps)
        lpdec.build_constraints(self.graph.load())

    def run_unit(self, k, clock):
        import lpldpc.simcli as simcli

        cfg = simcli.ExperimentConfig(
            mode="wer", trials=self.trials, seed=unit_seed(self.seed, k), graph=self.graph,
            maps=self.map_specs, sigma2=self.sigma2)
        planned = len(self.maps) * len(self.sigma2) * self.trials
        rows = _drive(clock, k, planned, lambda: simcli.run_wer(cfg))
        if rows is None:
            return None, []
        digest, parsed = _csv_digest(rows, self.workdir)
        bad = []
        for r in parsed:
            m, f, t, fails = (int(r[c]) for c in ("mismatch", "fractional", "tie", "failures"))
            if m + f + t != fails or int(r["trials"]) != self.trials:
                bad.append(f"unit {k}: row {r['map']} {r['sigma2']}: mismatch+fractional+tie != failures")
        if len(parsed) != len(self.maps) * len(self.sigma2):
            bad.append(f"unit {k}: {len(parsed)} CSV rows")
        return digest, bad


class WerN48(Workload):
    """One ``lp_decode`` per trial on a (3,6) n=48 graph, noise from
    ``transmit_awgn(..., seed, t)``; trials alternate the two sigma2 cells."""

    name = "wer-n48"
    budget_s = 10.0
    sigma2 = (0.5, 0.8)
    trial_end = None

    def setup(self, seed, workdir):
        import lpldpc.channel as channel
        import lpldpc.lpdec as lpdec
        import lpldpc.tanner as tanner

        self.seed = seed
        self.graph = tanner.generate_regular(48, 3, 6, GRAPH_SEED)
        self.zeros = channel.bpsk(np.zeros(self.graph.n, dtype=np.uint8))
        self.spec = channel.MapSpec.parse("trivial")
        lpdec.build_constraints(self.graph)

    def run_unit(self, k, clock):
        import lpldpc.channel as channel
        import lpldpc.lpdec as lpdec

        t, s2 = k // 2, self.sigma2[k % 2]

        def decode():
            params = channel.ChannelParams(s2)
            y = channel.transmit_awgn(self.zeros, params, self.seed, t)
            lamp = channel.apply_map(self.spec, channel.normalized_llr(y, params))
            out = lpdec.lp_decode(self.graph, lamp)
            clock.mark()
            return lamp, out

        done = _drive(clock, k, 1, decode)
        if done is None:
            return {"error": clock.records[-1][1]}, []
        lamp, out = done
        bad = []
        objective = float(lamp.sum() - 2.0 * (lamp @ out.vertex))
        if not math.isclose(objective, out.objective, rel_tol=1e-9, abs_tol=1e-9):
            bad.append(f"trial {k}: objective {out.objective!r} != {objective!r} from the vertex")
        if out.status == "integral":
            h = self.graph.parity_check_matrix().astype(np.int64)
            if ((h @ out.codeword.astype(np.int64)) % 2).any():
                bad.append(f"trial {k}: integral outcome is not a codeword")
        elif out.status not in ("fractional", "tie"):
            bad.append(f"trial {k}: unknown status {out.status!r}")
        return {"status": out.status, "objective": out.objective}, bad


def variable_regular_alist(seed, n=18, d_v=25, m=200):
    """alist text of a graph where each variable picks d_v distinct checks."""
    from lpldpc.tanner import TannerGraph, emit_alist

    rng = np.random.default_rng(seed)
    rows = [[] for _ in range(m)]
    for i in range(n):
        for j in rng.choice(m, size=d_v, replace=False):
            rows[j].append(i)
    return emit_alist(TannerGraph(n, [sorted(r) for r in rows]))


class WitnessDv25(Workload):
    """``run_witness_rate`` on a d_v=25, n=18, m=200 graph, written as alist
    during set-up and parsed by the driver on every call."""

    name = "witness-dv25"
    budget_s = 5.0
    sigma2 = (0.0625, 0.1089, 0.25)
    trials = 2

    def setup(self, seed, workdir):
        import lpldpc.lpdec as lpdec
        from lpldpc.simcli import GraphSource

        self.seed = seed
        path = os.path.join(workdir, "witness-dv25.alist")
        with open(path, "w") as fh:
            fh.write(variable_regular_alist(GRAPH_SEED))
        self.graph = GraphSource(path=path)
        self.workdir = workdir
        lpdec.build_constraints(self.graph.load())

    def run_unit(self, k, clock):
        import lpldpc.simcli as simcli
        from lpldpc.channel import MapSpec

        cfg = simcli.ExperimentConfig(
            mode="witness-rate", trials=self.trials, seed=unit_seed(self.seed, k),
            graph=self.graph, maps=(MapSpec.threshold(1.0),), sigma2=self.sigma2,
            proof=simcli.ProofSpec(w=1.0, verify_smax=2))
        rows = _drive(clock, k, len(self.sigma2) * self.trials,
                      lambda: simcli.run_witness_rate(cfg))
        if rows is None:
            return None, []
        digest, parsed = _csv_digest(rows, self.workdir)
        bad = []
        for r in parsed:
            agree, checked = int(r["agreement"]), int(r["agreement_checked"])
            if agree != checked:
                bad.append(f"unit {k}: sigma2 {r['sigma2']}: agreement {agree} != checked {checked}")
            if int(r["size_bound_violations"]) != 0:
                bad.append(f"unit {k}: sigma2 {r['sigma2']}: size bound violated")
            if checked + int(r["dead_band"]) != self.trials:
                bad.append(f"unit {k}: sigma2 {r['sigma2']}: checked + dead band != trials")
        return digest, bad


class PseudoScan(Workload):
    """``run_pseudo_scan`` on (3,4) graphs with n in {256, 512, 1024}."""

    name = "pseudo-scan"
    budget_s = 5.0
    n_values = (256, 512, 1024)
    # One root per graph: every trial generates a graph, builds its
    # constraints and completes one tier profile, and the median trial sits
    # inside the n=512 group rather than on the edge between two sizes.
    graphs_per_n = 3
    roots_per_graph = 1
    trial_end = ("lpldpc.simcli", "canonical_completion")

    def setup(self, seed, workdir):
        import lpldpc.lpdec as lpdec

        self.seed, self.workdir = seed, workdir
        # Each unit stands for one fresh `sim pseudo-scan` process, so it starts
        # with an empty constraint cache; this also bounds memory across units.
        self.cache_clear = getattr(lpdec.build_constraints, "cache_clear", lambda: None)

    def run_unit(self, k, clock):
        import lpldpc.simcli as simcli

        cfg = simcli.ExperimentConfig(
            mode="pseudo-scan", trials=1, seed=unit_seed(self.seed, k),
            scan=simcli.ScanSpec(n_values=self.n_values, dv=3, dc=4,
                                 graphs_per_n=self.graphs_per_n,
                                 roots_per_graph=self.roots_per_graph))
        planned = len(self.n_values) * self.graphs_per_n * self.roots_per_graph
        try:
            rows = _drive(clock, k, planned, lambda: simcli.run_pseudo_scan(cfg))
        finally:
            self.cache_clear()
        if rows is None:
            return None, []
        digest, parsed = _csv_digest(rows, self.workdir)
        bad = [f"unit {k}: n={r['n']} root {r['root']}: pseudoweight {r['pseudoweight']} > bound {r['bound']}"
               for r in parsed if not float(r["pseudoweight"]) <= float(r["bound"])]
        if len(parsed) != planned:
            bad.append(f"unit {k}: {len(parsed)} rows, expected {planned}")
        return digest, bad


WORKLOADS = {w.name: w for w in (WerN24, WerN48, WitnessDv25, PseudoScan)}
