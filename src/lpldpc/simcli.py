"""Monte Carlo experiment drivers with reproducible seeding and CSV output.

All randomness flows through per-trial substreams (see channel.trial_rng),
so a config plus master seed fixes every result regardless of the order in
which cells or trials execute.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import json
import math
import numbers
import typing
from dataclasses import dataclass

import numpy as np

from . import gf2
from .channel import ChannelParams, MapSpec, apply_map, bpsk, normalized_llr, trial_noise, trial_rng
from .lpdec import lp_decode
from .pseudo import awgnc_pseudoweight, canonical_completion, pseudoweight_bound
from .tanner import DisconnectedGraphError, GenerationError, generate_regular, parse_alist
from .witness import (
    DEAD_BAND,
    boundary_set,
    check_expansion,
    check_feasible,
    derive_params,
    find_delta_matching,
    high_noise_set,
    weights_from_matching,
    witness_search,
)

__all__ = [
    "MODES",
    "GraphSource",
    "ScanSpec",
    "ProofSpec",
    "ExperimentConfig",
    "CellResult",
    "ScanRow",
    "WitnessRateRow",
    "run_wer",
    "run_pseudo_scan",
    "run_witness_rate",
    "emit_csv",
]

# Graphs per size in a pseudo-weight scan: graph gi of size index ni draws its
# roots from trial index ni * MAX_GRAPHS_PER_N + gi, unique below this cap.
MAX_GRAPHS_PER_N = 10_000


@dataclass(frozen=True)
class GraphSource:
    """Either an alist path or a (n, dv, dc, seed) generator spec."""

    path: str | None = None
    n: int | None = None
    dv: int | None = None
    dc: int | None = None
    seed: int | None = None

    def __post_init__(self):
        _check_fields(self, "graph")
        by_path = self.path is not None
        by_gen = None not in (self.n, self.dv, self.dc, self.seed)
        if by_path == by_gen:
            raise ValueError("graph source needs either 'path' or all of n/dv/dc/seed")

    def load(self):
        if self.path is not None:
            with open(self.path, "rb") as fh:
                return parse_alist(fh.read())
        return generate_regular(self.n, self.dv, self.dc, self.seed)


@dataclass(frozen=True)
class ScanSpec:
    """Pseudo-weight scan grid: graph sizes and sampling counts."""

    n_values: tuple[int, ...]
    dv: int
    dc: int
    graphs_per_n: int = 1
    roots_per_graph: int = 1

    def __post_init__(self):
        _check_fields(self, "scan")
        if not self.n_values:
            raise ValueError("scan needs at least one n value")
        if not 3 <= self.dv < self.dc:
            raise ValueError("scan requires 3 <= dv < dc")
        if not (1 <= self.graphs_per_n <= MAX_GRAPHS_PER_N and self.roots_per_graph >= 1):
            raise ValueError(f"scan needs 1 <= graphs_per_n <= {MAX_GRAPHS_PER_N} "
                             "and roots_per_graph >= 1")
        for n in self.n_values:
            if n * self.dv % self.dc != 0 or self.dc > n:
                raise ValueError(
                    f"scan n={n} does not fit dv={self.dv}, dc={self.dc}: a simple regular "
                    "graph needs n*dv divisible by dc and dc <= n"
                )
        if self.roots_per_graph > min(self.n_values):
            raise ValueError(f"scan: 'roots_per_graph' = {self.roots_per_graph} exceeds the "
                             f"smallest n = {min(self.n_values)}; each graph's roots are distinct "
                             "variables")


@dataclass(frozen=True)
class ProofSpec:
    """Witness-rate knobs: truncation value and optional overrides."""

    w: float = 1.0
    delta_hat: float | None = None
    kappa: float | None = None
    verify_smax: int | None = None

    def __post_init__(self):
        _check_fields(self, "proof")
        if self.verify_smax is not None and self.verify_smax < 1:
            raise ValueError(f"proof: 'verify_smax' must be >= 1, got {self.verify_smax}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: mode, graph, map list, noise grid, trials, seed."""

    mode: str
    trials: int = 1
    seed: int = 0
    graph: GraphSource | None = None
    maps: tuple[MapSpec, ...] = ()
    sigma2: tuple[float, ...] = ()
    out: str | None = None
    random_codeword: bool = False
    scan: ScanSpec | None = None
    proof: ProofSpec | None = None

    def __post_init__(self):
        _check_fields(self, "config")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        mode = MODES[self.mode]
        for f in dataclasses.fields(self):
            if f.name not in mode.reads and getattr(self, f.name) != f.default:
                raise ValueError(f"config: {f.name!r} is not read by {self.mode} mode")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for s2 in self.sigma2:
            ChannelParams(s2)  # raises on a variance ChannelParams refuses
        for name in mode.needs:
            if not getattr(self, name):  # None, or an empty list
                raise ValueError(f"config: {self.mode} mode needs {name!r}")
        if self.mode == "witness-rate":
            proof = self.proof or ProofSpec()
            if len(self.maps) != 1 or self.maps[0].kind != "threshold":
                raise ValueError("witness-rate mode needs exactly one threshold map")
            if self.maps[0].param != proof.w:
                raise ValueError("threshold W must match the proof W")

    @classmethod
    def from_json(cls, obj, mode=None):
        """Build a config from a parsed JSON object (or a path to one)."""
        if isinstance(obj, (str, bytes)):
            with open(obj, "r") as fh:
                obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        if mode is not None:
            if obj.get("mode", mode) != mode:
                raise ValueError(f"config mode {obj['mode']!r} conflicts with requested {mode!r}")
            obj = {**obj, "mode": mode}
        return _read_section(cls, obj, "config")


# Per field type: the types a value may have (a bool only for a bool field),
# what an error says it must be, and the conversion stored (None: as given).
_RULES = {int: (numbers.Integral, "an integer", None), float: (numbers.Real, "a number", float),
          bool: (bool, "a boolean", None), str: (str, "a string", None),
          MapSpec: ((MapSpec, str), "a map string",
                    lambda v: MapSpec.parse(v) if isinstance(v, str) else v)}


def _field_rules(cls):
    """(name, optional, many, accepted, kind, convert) per field of ``cls``;
    ``X | None`` is optional, ``tuple[X, ...]`` many, a section its class."""
    rules = []
    for name, tp in typing.get_type_hints(cls).items():  # X, X | None or tuple[X, ...]
        optional, many = type(None) in typing.get_args(tp), typing.get_origin(tp) is tuple
        tp = typing.get_args(tp)[0] if optional or many else tp
        rules.append((name, optional, many, *_RULES.get(tp, (tp, "an object", None))))
    return tuple(rules)


# Resolved once: typing.get_type_hints costs far more than a whole config.
_FIELDS = {cls: _field_rules(cls) for cls in (GraphSource, ScanSpec, ProofSpec, ExperimentConfig)}


def _check_fields(obj, section):
    """Store each field of config dataclass ``obj`` normalized (a float for a
    number, a tuple for a list, a MapSpec for a map string), or raise
    ValueError naming ``section`` and the field if it has another type."""
    for name, optional, many, accepted, kind, convert in _FIELDS[type(obj)]:
        value = getattr(obj, name)
        if value is None and optional:
            continue
        entries = value if many else (value,)
        if not isinstance(entries, (list, tuple)) or not all(
                isinstance(v, accepted) and (accepted is bool or not isinstance(v, bool))
                for v in entries):
            kind = f"a list, each entry {kind}" if many else kind
            raise ValueError(f"{section}: {name!r} must be {kind}, got {value!r}")
        if convert is not None:
            converted = []
            for v in entries:
                try:
                    converted.append(convert(v))
                except (ValueError, OverflowError) as exc:  # a bad map string, a huge int
                    raise ValueError(f"{section}: {name!r} entry {v!r}: {exc}") from exc
            entries = converted
        object.__setattr__(obj, name, tuple(entries) if many else entries[0])


def _read_section(cls, obj, section):
    """The dataclass ``cls`` built from the JSON object ``obj`` of config
    ``section``, an object read as a section where the field holds one; ``cls``
    checks the values. An unknown or missing required key raises ValueError."""
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    for key in obj:
        if key not in fields:
            raise ValueError(f"{section}: unknown key {key!r}")
    for key, default in fields.items():
        if key not in obj and default is dataclasses.MISSING:
            raise ValueError(f"{section}: missing key {key!r}")
    return cls(**{key: _read_section(accepted, obj[key], key)
                  if accepted in _FIELDS and type(obj[key]) is dict else obj[key]
                  for key, _, _, accepted, *_ in _FIELDS[cls] if key in obj})


@dataclass(frozen=True)
class CellResult:
    """Tallies for one (map, sigma2) cell of a WER run."""

    map: str
    sigma2: float
    trials: int
    mismatch: int
    fractional: int
    tie: int
    failures: int
    wer: float
    stderr: float


def _trial_cells(config, g, cells):
    """The paired Monte Carlo loop of ``sim wer`` and ``sim witness-rate``.

    Per trial t, draws the transmitted word x once (the all-zeros word, or
    under random_codeword a uniformly random codeword from a null-space basis
    on substream 1) and the unit-variance noise z once (substream 0). Then,
    per cell index k in order, with cells[k] = (spec, params), yields
    ``(x, k, lamp)``: lamp is spec's map of the normalized LLRs of
    bpsk(x) + params.sigma * z. So every cell of a trial decodes the same word
    under the same noise, and trial t is drawn only when the consumer asks for
    the cell after trial t - 1's last.
    """
    basis = gf2.nullspace_basis(g.parity_check_matrix()) if config.random_codeword else None
    draw_word = basis is not None and basis.shape[0] > 0
    x = np.zeros(g.n, dtype=np.uint8)
    for t in range(config.trials):
        if draw_word:
            x = (trial_rng(config.seed, t, stream=1).integers(0, 2, basis.shape[0]) @ basis) % 2
        if draw_word or t == 0:  # a fixed word is mapped to its signal once
            xbar = bpsk(x)
        z = trial_noise(config.seed, t, g.n)
        for k, (spec, params) in enumerate(cells):
            yield x, k, apply_map(spec, normalized_llr(xbar + params.sigma * z, params))


def run_wer(config):
    """Word-error-rate table over the (map, sigma2) grid.

    Trials and noise come from the loop shared with run_witness_rate (see
    _trial_cells); rows come out in (map, sigma2) order. A trial fails when
    the decoder does not return the transmitted codeword; integral-mismatch,
    fractional and tie outcomes are tallied separately.
    """
    g = config.graph.load()
    cells = [(spec, ChannelParams(s2)) for spec in config.maps for s2 in config.sigma2]
    tallies = [dict.fromkeys(("mismatch", "fractional", "tie"), 0) for _ in cells]
    for x, k, lamp in _trial_cells(config, g, cells):
        out = lp_decode(g, lamp)
        if out.status in ("tie", "fractional"):
            tallies[k][out.status] += 1
        elif (out.codeword != x).any():
            tallies[k]["mismatch"] += 1
    results = []
    for (spec, params), tally in zip(cells, tallies):
        failures = sum(tally.values())
        wer = failures / config.trials
        results.append(CellResult(
            map=str(spec), sigma2=params.sigma2, trials=config.trials, **tally,
            failures=failures, wer=wer, stderr=math.sqrt(wer * (1.0 - wer) / config.trials),
        ))
    return results


@dataclass(frozen=True)
class ScanRow:
    """One tier completion: its scaling, pseudo-weight and growth bound."""

    n: int
    dv: int
    dc: int
    graph_seed: int
    root: int
    alpha: float
    pseudoweight: float
    bound: float


def run_pseudo_scan(config):
    """Pseudo-weight versus length scan for tier completions.

    For each n, samples graphs and roots and records the completion's
    pseudo-weight next to the growth bound beta' * n^beta. Each graph is the
    first simple, connected sample over 50 spawned seeds; connectivity comes
    from the tier BFS of the first root's completion, one BFS per completion.
    """
    sc = config.scan
    rows = []
    for ni, n in enumerate(sc.n_values):
        bound = pseudoweight_bound(sc.dv, sc.dc, n).bound
        for gi in range(sc.graphs_per_n):
            rng = trial_rng(config.seed, ni * MAX_GRAPHS_PER_N + gi, stream=2)
            picks = rng.choice(n, size=sc.roots_per_graph, replace=False)
            roots = sorted(int(r) for r in picks)
            for attempt in range(50):
                gseed = int(np.random.SeedSequence(
                    entropy=config.seed, spawn_key=(ni, gi, attempt)
                ).generate_state(1)[0])
                try:
                    g = generate_regular(n, sc.dv, sc.dc, gseed)
                    completions = [canonical_completion(g, roots[0])]
                except (DisconnectedGraphError, GenerationError):
                    continue  # rare; the attempt index keeps the retry deterministic
                break
            else:
                raise RuntimeError(f"no connected ({sc.dv}, {sc.dc})-regular graph found at n={n}")
            completions += [canonical_completion(g, root) for root in roots[1:]]
            for root, (pcw, alpha) in zip(roots, completions):
                rows.append(ScanRow(
                    n=n, dv=sc.dv, dc=sc.dc, graph_seed=gseed, root=root,
                    alpha=alpha, pseudoweight=awgnc_pseudoweight(pcw),
                    bound=bound,
                ))
    return rows


@dataclass(frozen=True)
class WitnessRateRow:
    """Per-sigma2 witness statistics and their agreement with the decoder."""

    sigma2: float
    trials: int
    witness_positive: int
    constructive_ok: int
    lp_success: int
    agreement_checked: int
    agreement: int
    dead_band: int
    expansion: str
    size_bound_violations: int


def run_witness_rate(config):
    """Compare the exact witness LP, the constructive pipeline, and the decoder.

    The all-zeros word is sent; trials and noise come from the loop shared
    with run_wer (see _trial_cells), and rows come out in sigma2 order. Per
    trial and cell: high-noise set, boundary set, matching search,
    constructed weights and their feasibility check, the witness LP, and the
    LP decoder.
    Expansion is brute-force verified up to proof.verify_smax when given
    (rows labeled 'verified', with alpha = smax/n); otherwise rows are
    labeled 'assumed'. On verified graphs, every trial whose |U| falls under
    the matching cap also checks |U| + |boundary| <= alpha*n.
    """
    g = config.graph.load()
    d_v = g.regular_var_degree
    if d_v is None:
        raise ValueError("witness-rate needs a variable-regular graph")
    proof = config.proof or ProofSpec()
    spec = config.maps[0]
    if proof.verify_smax is not None and proof.verify_smax >= g.n:
        raise ValueError(f"proof: 'verify_smax' must be below n = {g.n}, got {proof.verify_smax}")
    alpha_exp = None if proof.verify_smax is None else proof.verify_smax / g.n
    # checks kappa before the subset enumeration and the first trial
    params = derive_params(proof.w, d_v, proof.delta_hat, alpha_exp=alpha_exp, kappa=proof.kappa)
    expansion = "assumed"
    if proof.verify_smax is not None:
        verdict = check_expansion(g, params.delta_dv, proof.verify_smax)
        expansion = "verified" if verdict.ok else "assumed"
    an = params.alpha_exp * g.n if expansion == "verified" else None

    cells = [(spec, ChannelParams(s2)) for s2 in config.sigma2]
    tallies = [dict.fromkeys(("witness_positive", "constructive_ok", "lp_success",
                              "agreement_checked", "agreement", "dead_band",
                              "size_bound_violations"), 0) for _ in cells]
    for _, k, lamp in _trial_cells(config, g, cells):
        tally = tallies[k]
        u = high_noise_set(lamp)
        udot = boundary_set(g, u, params)
        owner = find_delta_matching(g, u, udot, params)
        built_ok = False
        if owner is not None:
            tau = weights_from_matching(g, owner, u, params)
            built_ok = check_feasible(g, tau, lamp).ok
        s_star = witness_search(g, lamp)
        out = lp_decode(g, lamp)
        success = out.is_zero_codeword()
        tally["witness_positive"] += s_star > 0
        tally["constructive_ok"] += built_ok
        tally["lp_success"] += success
        if abs(s_star) > DEAD_BAND:
            tally["agreement_checked"] += 1
            tally["agreement"] += (s_star > 0) == success
        else:
            tally["dead_band"] += 1
        if an is not None:
            size_u = int(np.count_nonzero(u))  # Python ints keep the count a Python int
            if size_u <= params.matching_cap(g.n):
                tally["size_bound_violations"] += (
                    size_u + int(np.count_nonzero(udot)) > an + 1e-9)
    return [WitnessRateRow(sigma2=ch.sigma2, trials=config.trials, expansion=expansion, **tally)
            for (_, ch), tally in zip(cells, tallies)]


def emit_csv(results, path, row_type=None):
    """Write dataclass rows as CSV: a header line plus one row per result.

    Floats, numpy float64 included, are written as the repr of a Python
    float (shortest round-trip), so parsing the file back reproduces every
    field exactly. An empty result list writes the header only; pass
    ``row_type`` to name the schema in that case.
    """
    rows = list(results)
    rt = row_type if row_type is not None else (type(rows[0]) if rows else None)
    if rt is None:
        raise ValueError("row_type is required when the result list is empty")
    names = [f.name for f in dataclasses.fields(rt)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in (getattr(row, nm) for nm in names)])


# Per ``sim`` mode: the top-level config fields it reads (a config leaves
# every other at its default), those of them it needs set and non-empty, its
# driver and its CSV row type.
SimMode = collections.namedtuple("SimMode", "reads needs run row_type")
MODES = {
    "wer": SimMode({"mode", "trials", "seed", "graph", "maps", "sigma2", "out", "random_codeword"},
                   ("graph", "maps", "sigma2"), run_wer, CellResult),
    "pseudo-scan": SimMode({"mode", "seed", "out", "scan"}, ("scan",), run_pseudo_scan, ScanRow),
    "witness-rate": SimMode({"mode", "trials", "seed", "graph", "maps", "sigma2", "out", "proof"},
                            ("graph", "sigma2"), run_witness_rate, WitnessRateRow),
}
