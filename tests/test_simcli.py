import collections
import csv
import dataclasses
import json
import math
import pathlib
import re
import typing

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpldpc import (
    CellResult,
    DisconnectedGraphError,
    ExperimentConfig,
    GraphSource,
    MapSpec,
    ProofSpec,
    ScanRow,
    ScanSpec,
    TannerGraph,
    bfs_tiers,
    boundary_set,
    canonical_profile,
    derive_params,
    emit_csv,
    emit_alist,
    generate_regular,
    lp_decode,
    pseudoweight_bound,
    run_pseudo_scan,
    run_wer,
    run_witness_rate,
)

from lpldpc import simcli, tanner

from oracles import (
    lp_decode_always_probe,
    pseudo_scan_by_connectivity_bfs,
    run_wer_cell_major,
    run_witness_rate_cell_major,
    var_regular_graph,
)


_WER_CONFIG = {
    "mode": "wer",
    "graph": {"n": 12, "dv": 3, "dc": 4, "seed": 11},
    "maps": ["trivial"],
    "sigma2": [0.5],
    "trials": 40,
    "seed": 9,
}


def wer_config(**overrides):
    return ExperimentConfig.from_json({**_WER_CONFIG, **overrides})


def config_in_python(obj):
    """The config of JSON object ``obj`` built by the dataclass constructors alone."""
    sections = {"graph": GraphSource, "scan": ScanSpec, "proof": ProofSpec}
    return ExperimentConfig(**{key: sections[key](**v) if key in sections else v
                               for key, v in obj.items()})


def wer_config_in_python(**overrides):
    return config_in_python({**_WER_CONFIG, **overrides})


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "mode": "wer",
        "graph": {"n": 8, "dv": 3, "dc": 4, "seed": 1},
        "maps": ["trivial", "threshold:1.0"],
        "sigma2": [0.4, 0.9],
        "trials": 5,
        "seed": 3,
        "out": "r.csv",
    }))
    cfg = ExperimentConfig.from_json(str(path))
    assert cfg.mode == "wer"
    assert len(cfg.maps) == 2 and str(cfg.maps[1]) == "threshold:1"
    assert cfg.out == "r.csv"


def test_config_validation_errors():
    with pytest.raises(ValueError, match="trials"):
        wer_config(trials=0)
    with pytest.raises(ValueError, match="sigma2"):
        wer_config(sigma2=[-0.5])
    with pytest.raises(ValueError, match="map"):
        wer_config(maps=[])
    with pytest.raises(ValueError, match="mode"):
        wer_config(mode="nonsense")
    with pytest.raises(ValueError, match="graph source"):
        GraphSource(path="x.alist", n=4, dv=1, dc=2, seed=0)
    with pytest.raises(ValueError, match="conflicts"):
        ExperimentConfig.from_json({"mode": "wer"}, mode="pseudo-scan")


def test_readme_example_configs_parse_as_before():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Experiment configs", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    got = [ExperimentConfig.from_json(json.loads(b), mode=m)
           for b, m in zip(blocks, ("wer", "pseudo-scan", "witness-rate"))]
    want = [
        ExperimentConfig(
            mode="wer", trials=1000, seed=1, graph=GraphSource(n=32, dv=3, dc=4, seed=7),
            maps=(MapSpec.trivial(), MapSpec.threshold(1.0), MapSpec.quantize2(1.0)),
            sigma2=(0.4, 0.6, 0.9), out="results.csv"),
        ExperimentConfig(
            mode="pseudo-scan", trials=1, seed=5, out="scan.csv",
            scan=ScanSpec(n_values=(24, 48, 96), dv=3, dc=4, graphs_per_n=5, roots_per_graph=3)),
        ExperimentConfig(
            mode="witness-rate", trials=50, seed=2, graph=GraphSource(path="bigdegree.alist"),
            maps=(MapSpec.threshold(1.0),), sigma2=(0.04, 0.09), out="rate.csv",
            proof=ProofSpec(w=1.0, verify_smax=2)),
    ]
    assert [repr(c) for c in got] == [repr(c) for c in want]  # repr tells 1 from 1.0


# Config values of a wrong type, as JSON overrides of wer_config, and the error
_WRONG_TYPES = [
    ({"seed": True}, "config: 'seed' must be an integer, got True"),
    ({"trials": 5.0}, "config: 'trials' must be an integer, got 5.0"),
    ({"sigma2": 0.5}, "config: 'sigma2' must be a list, each entry a number, got 0.5"),
    ({"sigma2": [0.5, "0.9"]}, "config: 'sigma2' must be a list, each entry a number"),
    ({"maps": "trivial"}, "config: 'maps' must be a list, each entry a map string"),
    ({"out": 3}, "config: 'out' must be a string, got 3"),
    ({"graph": {"n": 12, "dv": 3, "dc": 4, "seed": 11, "sed": 1}}, "graph: unknown key 'sed'"),
    ({"graph": {"n": 12, "dv": 3.0, "dc": 4, "seed": 11}}, "graph: 'dv' must be an integer"),
    ({"proof": {"w": "1"}}, "proof: 'w' must be a number, got '1'"),
    ({"proof": {"verify_smax": 2.0}}, "proof: 'verify_smax' must be an integer, got 2.0"),
]


def test_config_reader_checks_each_section_against_its_fields():
    # defaults come from the dataclasses; null stands for an optional field's None
    cfg = ExperimentConfig.from_json({"mode": "pseudo-scan", "out": None,
                                      "scan": {"n_values": [16], "dv": 3, "dc": 4}})
    assert (cfg.trials, cfg.seed, cfg.out, cfg.scan.graphs_per_n) == (1, 0, None, 1)
    # JSON integers are numbers: sigma2 and w come out as floats
    cfg = wer_config(sigma2=[1])
    assert cfg.sigma2 == (1.0,) and type(cfg.sigma2[0]) is float
    for overrides, message in _WRONG_TYPES:
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            wer_config(**overrides)
    with pytest.raises(ValueError, match="^config: missing key 'mode'$"):
        ExperimentConfig.from_json({"scan": {"n_values": [16], "dv": 3, "dc": 4}})
    with pytest.raises(ValueError, match="^config must be a JSON object$"):
        ExperimentConfig.from_json([{"mode": "wer"}])


def test_dataclasses_built_in_python_check_as_the_config_reader_does():
    for overrides, message in _WRONG_TYPES:
        if "unknown key" in message:  # Python rejects an unknown keyword itself
            with pytest.raises(TypeError, match="'sed'"):
                wer_config_in_python(**overrides)
            continue
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            wer_config_in_python(**overrides)


@pytest.mark.parametrize("build, field, value", [
    (lambda v: ExperimentConfig(mode="pseudo-scan", seed=v, scan=ScanSpec((16,), 3, 4)),
     "config: 'seed'", 1.7),
    (lambda v: ExperimentConfig(mode="pseudo-scan", trials=v, scan=ScanSpec((16,), 3, 4)),
     "config: 'trials'", 2.5),
    (lambda v: GraphSource(n=v, dv=3, dc=4, seed=1), "graph: 'n'", 12.0),
    (lambda v: GraphSource(n=12, dv=v, dc=4, seed=1), "graph: 'dv'", "3"),
    (lambda v: GraphSource(n=12, dv=3, dc=v, seed=1), "graph: 'dc'", 4.0),
    (lambda v: GraphSource(n=12, dv=3, dc=4, seed=v), "graph: 'seed'", 1.7),
    (lambda v: ScanSpec(n_values=(16,), dv=v, dc=4), "scan: 'dv'", 3.0),
    (lambda v: ScanSpec(n_values=(16,), dv=3, dc=v), "scan: 'dc'", 4.5),
    (lambda v: ScanSpec(n_values=(16,), dv=3, dc=4, graphs_per_n=v), "scan: 'graphs_per_n'", 2.0),
    (lambda v: ScanSpec(n_values=(16,), dv=3, dc=4, roots_per_graph=v),
     "scan: 'roots_per_graph'", True),
    (lambda v: ProofSpec(verify_smax=v), "proof: 'verify_smax'", 2.0),
])
def test_dataclasses_built_in_python_reject_non_integers(build, field, value):
    # the config reader's rule and wording, also without a JSON config
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be an integer, got "
                                         f"{re.escape(repr(value))}$"):
        build(value)


def test_scan_spec_built_in_python_words_a_fractional_size_as_the_reader_does():
    with pytest.raises(ValueError, match=re.escape(
            "scan: 'n_values' must be a list, each entry an integer, got (16, 24.0)") + "$"):
        ScanSpec(n_values=(16, 24.0), dv=3, dc=4)


def test_dataclasses_built_in_python_normalize_as_the_config_reader_does(tmp_path):
    with pytest.raises(ValueError, match="^config: 'random_codeword' must be a boolean, "
                                         "got 'false'$"):
        wer_config_in_python(random_codeword="false")
    with pytest.raises(ValueError, match="^proof: 'w' must be a number, got '1.0'$"):
        ProofSpec(w="1.0")
    with pytest.raises(ValueError, match=r"^config: 'graph' must be an object, got \{'n': 12"):
        ExperimentConfig(**{**_WER_CONFIG, "maps": (MapSpec.trivial(),)})
    # lists become tuples, numbers floats, map strings MapSpecs: a hashable config
    hash(wer_config_in_python(sigma2=[0.5]))
    cfg = wer_config_in_python(maps=("trivial", "threshold:1"), sigma2=(np.float64(0.5), 1),
                               trials=4)
    twin = wer_config(maps=["trivial", "threshold:1"], sigma2=[0.5, 1], trials=4)
    assert cfg == twin and repr(cfg) == repr(twin) and hash(cfg) == hash(twin)
    assert [type(s2) for s2 in cfg.sigma2] == [float, float]
    emit_csv(run_wer(cfg), tmp_path / "python.csv")
    emit_csv(run_wer(twin), tmp_path / "json.csv")
    assert (tmp_path / "python.csv").read_bytes() == (tmp_path / "json.csv").read_bytes()
    with open(tmp_path / "python.csv", newline="") as fh:
        assert [r["sigma2"] for r in csv.DictReader(fh)] == ["0.5", "1.0"] * 2


def test_config_map_string_that_does_not_parse_names_its_key():
    message = "config: 'maps' entry 'threshold:abc': could not convert string to float: 'abc'"
    for build in (wer_config, wer_config_in_python):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            build(maps=["trivial", "threshold:abc"])
    with pytest.raises(ValueError, match="^could not convert string to float: 'abc'$"):
        MapSpec.parse("threshold:abc")


@pytest.mark.parametrize("mode, key, value", [
    ("wer", "scan", {"n_values": [16], "dv": 3, "dc": 4}),
    ("wer", "proof", {"w": 1.0}),
    ("witness-rate", "random_codeword", True),
    ("witness-rate", "scan", {"n_values": [16], "dv": 3, "dc": 4}),
    ("pseudo-scan", "graph", {"n": 12, "dv": 3, "dc": 4, "seed": 11}),
    ("pseudo-scan", "maps", ["trivial"]),
    ("pseudo-scan", "sigma2", [0.5]),
    ("pseudo-scan", "trials", 50),
    ("pseudo-scan", "random_codeword", True),
    ("pseudo-scan", "proof", {"w": 1.0}),
])
def test_a_value_its_mode_never_reads_is_an_error(mode, key, value):
    base = {"wer": _WER_CONFIG,
            "witness-rate": {**_WER_CONFIG, "mode": "witness-rate", "maps": ["threshold:1.0"]},
            "pseudo-scan": {"mode": "pseudo-scan", "scan": {"n_values": [16], "dv": 3, "dc": 4}}}
    message = f"config: {key!r} is not read by {mode} mode"
    for build in (ExperimentConfig.from_json, config_in_python):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            build({**base[mode], key: value})
    # at its default the key says nothing that the mode ignores
    default = {"trials": 1, "maps": [], "sigma2": [], "random_codeword": False}.get(key)
    ExperimentConfig.from_json({**base[mode], key: default})


def test_config_types_are_resolved_once_not_per_config(monkeypatch):
    def get_type_hints(*args, **kwargs):
        raise AssertionError("type hints resolved while building a config")

    monkeypatch.setattr(typing, "get_type_hints", get_type_hints)
    assert wer_config() == wer_config_in_python()


def test_dataclasses_built_in_python_take_numpy_integers():
    g = GraphSource(n=np.int64(12), dv=np.int32(3), dc=4, seed=np.uint64(1)).load()
    assert g == generate_regular(12, 3, 4, 1)
    scan = ScanSpec(n_values=[np.int64(16)], dv=3, dc=4, graphs_per_n=np.int64(2))
    assert type(scan.n_values[0]) is np.int64 and type(scan.graphs_per_n) is np.int64


def test_scan_spec_caps_graphs_per_n_at_the_root_stream_stride():
    # graph gi of size index ni draws its roots from trial ni * 10_000 + gi
    assert simcli.MAX_GRAPHS_PER_N == 10_000
    ScanSpec(n_values=(16,), dv=3, dc=4, graphs_per_n=10_000)
    with pytest.raises(ValueError, match="graphs_per_n <= 10000"):
        ScanSpec(n_values=(16,), dv=3, dc=4, graphs_per_n=10_001)
    with pytest.raises(ValueError, match="graphs_per_n <= 10000"):
        _scan_config(0, [16], 10_001, 1)


def test_witness_rate_config_needs_matching_threshold():
    base = {
        "mode": "witness-rate",
        "graph": {"n": 12, "dv": 3, "dc": 4, "seed": 1},
        "maps": ["threshold:2.0"],
        "sigma2": [0.1],
        "trials": 1,
        "seed": 0,
        "proof": {"w": 1.0},
    }
    with pytest.raises(ValueError, match="proof W"):
        ExperimentConfig.from_json(base)


def test_run_wer_noiseless_is_error_free():
    results = run_wer(wer_config(sigma2=[1e-6], trials=30))
    (cell,) = results
    assert cell.failures == 0 and cell.wer == 0.0
    assert cell.mismatch == cell.fractional == cell.tie == 0


def test_run_wer_failure_accounting():
    for cell in run_wer(wer_config(sigma2=[0.6, 1.2], trials=60)):
        assert cell.mismatch + cell.fractional + cell.tie == cell.failures
        assert cell.wer == cell.failures / cell.trials
        se = math.sqrt(cell.wer * (1 - cell.wer) / cell.trials)
        assert cell.stderr == pytest.approx(se)


def test_run_wer_quantization_level_invariance():
    cfg = wer_config(maps=["quantize2:1", "quantize2:10"], sigma2=[0.8], trials=50)
    a, b = run_wer(cfg)
    assert (a.mismatch, a.fractional, a.tie) == (b.mismatch, b.fractional, b.tie)


def test_run_wer_csv_matches_always_probe_decoder(tmp_path, monkeypatch):
    # Skipping the probe on certified optima, and the LP on codeword hard
    # decisions, changes no tally, and the decode stats stay out of the CSV.
    # The high-SNR cell sends random nonzero codewords, so their hard
    # decisions take the certificate.
    graph = {"n": 24, "dv": 3, "dc": 4, "seed": 3}
    mid = wer_config(graph=graph, maps=["trivial", "threshold:1.0", "quantize2:1"],
                     sigma2=[0.5, 0.8], trials=20, seed=1)
    high = wer_config(graph=graph, maps=["trivial", "threshold:1.0"],
                      sigma2=[0.35], trials=20, seed=1, random_codeword=True)
    uniqueness = []

    def decode(g, lamp):
        out = lp_decode(g, lamp)
        uniqueness.append((out.stats["uniqueness"], out.is_integral and out.codeword.any()))
        return out

    for name, cfg in (("mid", mid), ("high", high)):
        monkeypatch.setattr(simcli, "lp_decode", decode)
        results = run_wer(cfg)
        emit_csv(results, tmp_path / f"{name}-certified.csv")
        monkeypatch.setattr(simcli, "lp_decode", lp_decode_always_probe)
        emit_csv(run_wer(cfg), tmp_path / f"{name}-probed.csv")
        assert ((tmp_path / f"{name}-certified.csv").read_bytes()
                == (tmp_path / f"{name}-probed.csv").read_bytes())
        if name == "mid":
            assert sum(cell.tie for cell in results) > 0
    assert ("hard_decision", True) in uniqueness
    assert {"certified", "probed"} <= {kind for kind, _ in uniqueness}


def test_run_wer_is_deterministic_and_order_independent():
    cfg = wer_config(maps=["trivial", "threshold:1.0"], sigma2=[0.5, 0.9], trials=25)
    swapped = wer_config(maps=["threshold:1.0", "trivial"], sigma2=[0.9, 0.5], trials=25)
    by_key = lambda cells: {(c.map, c.sigma2): c for c in cells}
    first = by_key(run_wer(cfg))
    second = by_key(run_wer(swapped))
    assert first == second


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    """Scratch directory for CSVs, with the witness-rate graphs as alist:
    ``verified`` passes the pair-expansion check at verify_smax 2,
    ``assumed`` does not."""
    path = tmp_path_factory.mktemp("trial-major")
    for name, args in (("verified", (12, 25, 375, 0)), ("assumed", (18, 25, 200, 3))):
        (path / f"{name}.alist").write_text(emit_alist(var_regular_graph(*args)))
    return path


def _same_csv_bytes(csv_dir, run, reference, cfg):
    emit_csv(run(cfg), csv_dir / "run.csv")
    emit_csv(reference(cfg), csv_dir / "reference.csv")
    return (csv_dir / "run.csv").read_bytes() == (csv_dir / "reference.csv").read_bytes()


@pytest.mark.parametrize("random_codeword", [False, True])
@pytest.mark.parametrize("trials", [1, 3])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_run_wer_trial_major_writes_the_cell_major_csv(csv_dir, random_codeword, trials, seed):
    # one noise draw (and one codeword) per trial, shared by every cell
    cfg = wer_config(graph={"n": 24, "dv": 3, "dc": 4, "seed": 3},
                     maps=["quantize2:1", "trivial", "threshold:1.0"], sigma2=[0.8, 0.5],
                     trials=trials, seed=seed, random_codeword=random_codeword)
    assert _same_csv_bytes(csv_dir, run_wer, run_wer_cell_major, cfg)


@pytest.mark.parametrize("graph", ["verified", "assumed"])
@pytest.mark.parametrize("verify_smax", [None, 2])
@pytest.mark.parametrize("trials", [1, 3])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_run_witness_rate_trial_major_writes_the_cell_major_csv(csv_dir, graph, verify_smax,
                                                                trials, seed):
    cfg = ExperimentConfig.from_json({
        "mode": "witness-rate", "graph": {"path": str(csv_dir / f"{graph}.alist")},
        "maps": ["threshold:1.0"], "sigma2": [0.0625, 0.25, 1.0], "trials": trials,
        "seed": seed, "proof": {"w": 1.0, "verify_smax": verify_smax},
    })
    assert _same_csv_bytes(csv_dir, run_witness_rate, run_witness_rate_cell_major, cfg)


@pytest.mark.parametrize("proof, message", [
    ({"verify_smax": 12}, "proof: 'verify_smax' must be below n = 12, got 12"),  # n = 12
    ({"verify_smax": 13}, "proof: 'verify_smax' must be below n = 12, got 13"),
    ({"verify_smax": 2, "kappa": 1.0}, "kappa must lie strictly inside"),
    ({"verify_smax": 2, "kappa": 0.0}, "kappa must lie strictly inside"),
    ({"kappa": 1.0}, "kappa must lie strictly inside"),
    ({"verify_smax": 2}, None),
])
def test_run_witness_rate_checks_its_inputs_before_it_enumerates_subsets(csv_dir, monkeypatch,
                                                                         proof, message):
    derived = []
    real_derive = simcli.derive_params

    def derive(*args, **kwargs):
        derived.append(kwargs.get("alpha_exp"))
        return real_derive(*args, **kwargs)

    monkeypatch.setattr(simcli, "derive_params", derive)
    if message is not None:
        def enumerate_subsets(*args):
            raise AssertionError("check_expansion ran before the inputs were checked")

        monkeypatch.setattr(simcli, "check_expansion", enumerate_subsets)
    cfg = ExperimentConfig.from_json({
        "mode": "witness-rate", "graph": {"path": str(csv_dir / "verified.alist")},
        "maps": ["threshold:1.0"], "sigma2": [0.25], "trials": 1, "seed": 1,
        "proof": {"w": 1.0, **proof},
    })
    if message is None:
        assert run_witness_rate(cfg)[0].expansion == "verified"
    else:
        with pytest.raises(ValueError, match=re.escape(message)):
            run_witness_rate(cfg)
    # one derivation, with alpha = smax / n when expansion is verified, and
    # none when verify_smax >= n is refused first
    smax = proof.get("verify_smax")
    if smax is not None and smax >= 12:
        assert derived == []
    else:
        assert derived == [None if smax is None else smax / 12]


@pytest.mark.parametrize("smax", [0, -1])
def test_proof_spec_rejects_verify_smax_below_one(smax):
    message = f"^proof: 'verify_smax' must be >= 1, got {smax}$"
    with pytest.raises(ValueError, match=message):
        ProofSpec(verify_smax=smax)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_json({
            "mode": "witness-rate", "graph": {"n": 12, "dv": 3, "dc": 4, "seed": 11},
            "maps": ["threshold:1.0"], "sigma2": [0.5], "proof": {"verify_smax": smax},
        })


def test_trial_major_csvs_cover_every_outcome(csv_dir):
    # the configs above at a fixed seed and 12 trials reach every tally
    wer = run_wer(wer_config(graph={"n": 24, "dv": 3, "dc": 4, "seed": 3},
                             maps=["quantize2:1", "trivial", "threshold:1.0"], sigma2=[0.8, 0.5],
                             trials=12, seed=2, random_codeword=True))
    assert all(sum(getattr(c, name) for c in wer) > 0 for name in ("mismatch", "fractional", "tie"))
    rows = run_witness_rate(ExperimentConfig.from_json({
        "mode": "witness-rate", "graph": {"path": str(csv_dir / "verified.alist")},
        "maps": ["threshold:1.0"], "sigma2": [0.0625, 0.25, 1.0], "trials": 12, "seed": 1,
        "proof": {"w": 1.0, "verify_smax": 2},
    }))
    assert rows[0].expansion == "verified"
    # matchings found and matchings missing
    assert rows[0].constructive_ok == 12 and rows[-1].constructive_ok < 12


def test_drivers_draw_each_trials_noise_and_codeword_once(csv_dir, monkeypatch):
    from lpldpc import channel

    draws = collections.Counter()
    real = channel.trial_rng

    def counting(seed, trial, stream=0):
        draws[stream, trial] += 1
        return real(seed, trial, stream)

    monkeypatch.setattr(channel, "trial_rng", counting)
    monkeypatch.setattr(simcli, "trial_rng", counting)
    run_wer(wer_config(maps=["trivial", "quantize2:1"], sigma2=[0.5, 0.8], trials=3,
                       random_codeword=True))
    assert draws == {(stream, t): 1 for stream in (0, 1) for t in range(3)}
    draws.clear()
    run_wer(wer_config(maps=["trivial", "threshold:1.0"], sigma2=[0.5, 0.8], trials=3))
    assert draws == {(0, t): 1 for t in range(3)}
    draws.clear()
    run_witness_rate(ExperimentConfig.from_json({
        "mode": "witness-rate", "graph": {"path": str(csv_dir / "verified.alist")},
        "maps": ["threshold:1.0"], "sigma2": [0.0625, 0.25], "trials": 3, "seed": 5,
        "proof": {"w": 1.0, "verify_smax": 2},
    }))
    assert draws == {(0, t): 1 for t in range(3)}


def test_wer_and_witness_rate_decode_the_same_threshold_llrs(csv_dir, monkeypatch):
    # for the all-zeros word, the same seed and the same sigma2, a threshold:W
    # cell of either mode hands the decoder the same channel outputs
    seen = []
    real = simcli.lp_decode

    def recording(g, lam, *args, **kwargs):
        seen.append((lam.dtype.str, lam.shape, lam.tobytes()))
        return real(g, lam, *args, **kwargs)

    monkeypatch.setattr(simcli, "lp_decode", recording)
    grid = {"graph": {"path": str(csv_dir / "verified.alist")}, "maps": ["threshold:1.0"],
            "sigma2": [0.0625, 0.25, 1.0], "trials": 4, "seed": 5}
    run_wer(ExperimentConfig.from_json(grid, mode="wer"))
    wer_inputs = seen[:]
    seen.clear()
    run_witness_rate(ExperimentConfig.from_json({**grid, "proof": {"w": 1.0}}, mode="witness-rate"))
    assert len(wer_inputs) == 12 and len(set(wer_inputs)) == 12
    assert seen == wer_inputs


def test_run_wer_monotone_in_noise():
    cells = run_wer(wer_config(sigma2=[0.3, 0.7, 1.4], trials=150))
    for low, high in zip(cells, cells[1:]):
        se = 3.0 * math.sqrt(low.stderr ** 2 + high.stderr ** 2)
        assert low.wer <= high.wer + se


def test_run_wer_c_symmetry():
    base = wer_config(sigma2=[0.8], trials=250)
    rand = wer_config(sigma2=[0.8], trials=250, random_codeword=True)
    (a,), (b,) = run_wer(base), run_wer(rand)
    spread = 3.0 * math.sqrt(a.stderr ** 2 + b.stderr ** 2) + 1e-9
    assert abs(a.wer - b.wer) <= spread
    assert 0.05 < a.wer < 0.95  # the comparison is only meaningful mid-curve


def test_run_pseudo_scan_rows_respect_bound():
    cfg = ExperimentConfig.from_json({
        "mode": "pseudo-scan",
        "trials": 1,
        "seed": 5,
        "scan": {"n_values": [16, 32], "dv": 3, "dc": 4,
                 "graphs_per_n": 2, "roots_per_graph": 2},
    })
    rows = run_pseudo_scan(cfg)
    assert len(rows) == 8
    for row in rows:
        assert row.pseudoweight <= row.bound
        assert row.pseudoweight <= row.n
        assert 0 < row.alpha <= 1.0
        assert row.bound == pseudoweight_bound(row.dv, row.dc, row.n).bound


def test_run_pseudo_scan_calls_tanner_through_module_names(monkeypatch):
    # The benchmark tracer wraps these names in every lpldpc module that
    # holds them; a trial must reach the graph layer through them.
    from lpldpc import pseudo

    calls = collections.Counter()

    def count(mod, name):
        real = getattr(mod, name)

        def wrapper(*args, **kwargs):
            calls[f"{mod.__name__}.{name}"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mod, name, wrapper)

    # every module that holds a name, as the tracer wraps them
    for mod in (simcli, pseudo, tanner):
        for name in ("generate_regular", "bfs_tiers"):
            if hasattr(mod, name):
                count(mod, name)
    cfg = ExperimentConfig.from_json({
        "mode": "pseudo-scan",
        "trials": 1,
        "seed": 5,
        "scan": {"n_values": [16, 32], "dv": 3, "dc": 4,
                 "graphs_per_n": 2, "roots_per_graph": 1},
    })
    rows = run_pseudo_scan(cfg)
    assert len(rows) == 4
    # one graph and one BFS per trial: the tier BFS also tests connectivity
    assert calls == {"lpldpc.simcli.generate_regular": 4, "lpldpc.pseudo.bfs_tiers": 4}


def _scan_config(seed, n_values, graphs_per_n, roots_per_graph, dv=3, dc=4):
    return ExperimentConfig.from_json({
        "mode": "pseudo-scan", "trials": 1, "seed": seed,
        "scan": {"n_values": n_values, "dv": dv, "dc": dc,
                 "graphs_per_n": graphs_per_n, "roots_per_graph": roots_per_graph},
    })


def _scan_outcome(run, cfg):
    try:
        rows = run(cfg)
    except RuntimeError as exc:
        return type(exc).__name__, str(exc)
    return "ok", [tuple(repr(v) if isinstance(v, float) else v for v in dataclasses.astuple(r))
                  for r in rows]


def _first_attempt_seed(seed, n_index, graph_index):
    return int(np.random.SeedSequence(
        entropy=seed, spawn_key=(n_index, graph_index, 0)).generate_state(1)[0])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_values=st.lists(st.sampled_from([8, 12, 16]), min_size=1, max_size=2),
    graphs_per_n=st.integers(1, 3), roots_per_graph=st.integers(1, 9),
    cap=st.sampled_from([1, 3, tanner.RETRY_CAP]),
)
def test_run_pseudo_scan_matches_connectivity_bfs_oracle(seed, n_values, graphs_per_n,
                                                         roots_per_graph, cap):
    # a shortened retry cap makes GenerationError retries, and at cap 1 some
    # scans exhaust all 50 attempts; outcomes are compared either way
    assume(roots_per_graph <= min(n_values))  # more is refused by ScanSpec
    cfg = _scan_config(seed, n_values, graphs_per_n, roots_per_graph)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tanner, "RETRY_CAP", cap)
        assert _scan_outcome(run_pseudo_scan, cfg) == \
            _scan_outcome(pseudo_scan_by_connectivity_bfs, cfg)


@pytest.mark.parametrize("roots_per_graph", [1, 3, 8])
def test_run_pseudo_scan_retries_disconnected_first_sample(roots_per_graph):
    # Found by search: at master seed 223, the first sample of graph 41 at
    # n = 8 is disconnected, so that graph comes from attempt 1 or later.
    cfg = _scan_config(223, [8], 42, roots_per_graph)
    with pytest.raises(DisconnectedGraphError):
        bfs_tiers(generate_regular(8, 3, 4, _first_attempt_seed(223, 0, 41)), 0)
    outcome = _scan_outcome(run_pseudo_scan, cfg)
    assert outcome == _scan_outcome(pseudo_scan_by_connectivity_bfs, cfg)
    assert len(outcome[1]) == 42 * roots_per_graph
    retried = {row[3] for row in outcome[1][41 * roots_per_graph:]}  # graph_seed
    assert len(retried) == 1 and _first_attempt_seed(223, 0, 41) not in retried


def test_run_pseudo_scan_gives_up_after_fifty_attempts(monkeypatch):
    # (3, 8) at n = 8 is the complete graph K(8, 3): a single permutation of
    # the stubs is simple with probability 8!^3 6^8 / 24! ~ 1.8e-4, so with
    # one resample per attempt, all 50 attempts at seed 5 raise GenerationError
    monkeypatch.setattr(tanner, "RETRY_CAP", 1)
    cfg = _scan_config(5, [8], 1, 1, dv=3, dc=8)
    want = ("RuntimeError", "no connected (3, 8)-regular graph found at n=8")
    assert _scan_outcome(run_pseudo_scan, cfg) == want
    assert _scan_outcome(pseudo_scan_by_connectivity_bfs, cfg) == want


@pytest.mark.parametrize("n_values, dv, dc, bad", [
    ([8, 10], 3, 4, 10),  # 10 * 3 is not divisible by 4
    ([4], 3, 6, 4),  # dc > n, so dv > m = 2: no simple graph at any seed
    ([12, 4, 6], 3, 6, 4),
    ([0], 3, 4, 0),
])
def test_scan_spec_rejects_sizes_without_a_regular_graph(n_values, dv, dc, bad):
    with pytest.raises(ValueError, match=rf"n={bad} does not fit dv={dv}, dc={dc}"):
        ScanSpec(n_values=tuple(n_values), dv=dv, dc=dc)
    # from a config, before any size runs
    with pytest.raises(ValueError, match=rf"n={bad} "):
        _scan_config(0, n_values, 1, 1, dv=dv, dc=dc)


@pytest.mark.parametrize("n_values, roots", [([8], 20), ([16, 8], 9)])
def test_scan_spec_rejects_more_roots_than_the_smallest_n(n_values, roots):
    # roots are distinct variables: 20 roots at n = 8 would be 8 rows
    message = f"scan: 'roots_per_graph' = {roots} exceeds the smallest n = 8"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        ScanSpec(n_values=tuple(n_values), dv=3, dc=4, roots_per_graph=roots)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        _scan_config(0, n_values, 1, roots)
    assert len(run_pseudo_scan(_scan_config(0, n_values, 1, 8))) == 8 * len(n_values)


def test_run_pseudo_scan_growth_rate():
    cfg = ExperimentConfig.from_json({
        "mode": "pseudo-scan",
        "trials": 1,
        "seed": 6,
        "scan": {"n_values": [24, 96], "dv": 3, "dc": 4,
                 "graphs_per_n": 3, "roots_per_graph": 2},
    })
    rows = run_pseudo_scan(cfg)
    lo = np.mean([r.pseudoweight for r in rows if r.n == 24])
    hi = np.mean([r.pseudoweight for r in rows if r.n == 96])
    slope = math.log(hi / lo) / math.log(96 / 24)
    beta = pseudoweight_bound(3, 4, 1).beta
    assert slope <= beta + 0.1


def test_run_witness_rate_small(tmp_path):
    g = var_regular_graph(12, 25, 150, seed=3)
    path = tmp_path / "g.alist"
    path.write_text(emit_alist(g))
    cfg = ExperimentConfig.from_json({
        "mode": "witness-rate",
        "graph": {"path": str(path)},
        "maps": ["threshold:1.0"],
        "sigma2": [0.0064, 0.25],
        "trials": 8,
        "seed": 17,
        "proof": {"w": 1.0},
    })
    rows = run_witness_rate(cfg)
    assert len(rows) == 2
    for row in rows:
        assert row.agreement == row.agreement_checked  # exact equivalence
        assert row.agreement_checked + row.dead_band == row.trials
        # the construction is sufficient, never necessary
        assert row.constructive_ok <= row.witness_positive + row.dead_band
        assert row.expansion == "assumed"
    # at tiny noise the high-noise set is empty: everything succeeds
    assert rows[0].lp_success == 8
    assert rows[0].constructive_ok == 8


def test_run_witness_rate_verified_expander(tmp_path):
    from lpldpc import chernoff_sigma_budget, check_expansion, derive_params

    # find a graph whose pair expansion at beta = delta*d_v verifies
    params = derive_params(1.0, 25)
    g = None
    for seed in range(20):
        cand = var_regular_graph(12, 25, 375, seed=seed)
        if check_expansion(cand, beta_exp=params.delta_dv, s_max=2).ok:
            g = cand
            break
    assert g is not None
    params = derive_params(1.0, 25, alpha_exp=2 / 12)
    budget = chernoff_sigma_budget(params)
    sigma = budget.sigma_max / 2.0

    path = tmp_path / "g.alist"
    path.write_text(emit_alist(g))
    cfg = ExperimentConfig.from_json({
        "mode": "witness-rate",
        "graph": {"path": str(path)},
        "maps": ["threshold:1.0"],
        "sigma2": [sigma * sigma],
        "trials": 40,
        "seed": 23,
        "proof": {"w": 1.0, "verify_smax": 2},
    })
    (row,) = run_witness_rate(cfg)
    assert row.expansion == "verified"
    assert row.size_bound_violations == 0
    # counts stay Python ints, not numpy scalars, in the row and its repr
    assert all(type(getattr(row, name)) is int for name in (
        "witness_positive", "constructive_ok", "lp_success", "agreement_checked",
        "agreement", "dead_band", "size_bound_violations"))
    assert row.constructive_ok / row.trials > 0.95
    assert row.agreement == row.agreement_checked


def test_run_witness_rate_checks_kappa_before_the_first_trial(tmp_path, monkeypatch):
    # at sigma2 4.0 no trial finds a matching, so no trial builds weights
    # and only a check ahead of the trials sees an out-of-range kappa
    path = tmp_path / "g.alist"
    path.write_text(emit_alist(var_regular_graph(18, 25, 200, seed=3)))
    cfg = ExperimentConfig.from_json({
        "mode": "witness-rate",
        "graph": {"path": str(path)},
        "maps": ["threshold:1.0"],
        "sigma2": [4.0],
        "trials": 4,
        "seed": 0,
        "proof": {"w": 1.0, "kappa": 100},
    })
    searches = []
    real_search = simcli.witness_search

    def counting_search(g, lamp):
        searches.append(1)
        return real_search(g, lamp)

    monkeypatch.setattr(simcli, "witness_search", counting_search)
    with pytest.raises(ValueError, match=r"kappa must lie strictly inside \("):
        run_witness_rate(cfg)
    assert searches == []


def test_graph_with_one_variable_short_of_its_degree_is_not_variable_regular(tmp_path):
    # variable 0 loses one of its 25 checks; every other variable keeps 25
    rows = [list(row) for row in var_regular_graph(18, 25, 60, seed=3).check_nbrs]
    next(row for row in rows if 0 in row).remove(0)
    g = TannerGraph(18, rows)
    assert g.var_degrees.tolist() == [24] + [25] * 17 and g.regular_var_degree is None
    with pytest.raises(ValueError, match="^graph must have uniform variable degree 25$"):
        boundary_set(g, np.zeros(g.n, dtype=bool), derive_params(1.0, 25))
    with pytest.raises(ValueError, match="^tier profile requires a degree-regular graph$"):
        canonical_profile(g, bfs_tiers(g, 0))
    path = tmp_path / "g.alist"
    path.write_text(emit_alist(g))
    cfg = ExperimentConfig.from_json({
        "mode": "witness-rate", "graph": {"path": str(path)}, "maps": ["threshold:1.0"],
        "sigma2": [0.25], "trials": 1, "seed": 0,
    })
    with pytest.raises(ValueError, match="^witness-rate needs a variable-regular graph$"):
        run_witness_rate(cfg)


def test_emit_csv_round_trip(tmp_path):
    rows = [
        CellResult(map="trivial", sigma2=0.5, trials=7, mismatch=1, fractional=2,
                   tie=0, failures=3, wer=3 / 7, stderr=0.1871),
        CellResult(map="quantize2:1", sigma2=1.25, trials=7, mismatch=0, fractional=0,
                   tie=1, failures=1, wer=1 / 7, stderr=0.0),
    ]
    path = tmp_path / "out.csv"
    emit_csv(rows, str(path))
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == 2
    assert records[0]["map"] == "trivial"
    assert float(records[0]["wer"]) == rows[0].wer  # repr round-trips exactly
    assert int(records[1]["tie"]) == 1
    assert float(records[1]["sigma2"]) == 1.25
    # a numpy float64 field is written as a float, not as "np.float64(0.5)"
    emit_csv([ScanRow(n=8, dv=3, dc=4, graph_seed=1, root=0, alpha=np.float64(0.5),
                      pseudoweight=np.float64(2.0), bound=3.0)], str(path))
    assert path.read_text().splitlines()[1] == "8,3,4,1,0,0.5,2.0,3.0"


def test_emit_csv_empty_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path), row_type=ScanRow)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].split(",")[:2] == ["n", "dv"]
    with pytest.raises(ValueError):
        emit_csv([], str(path))


def test_emit_csv_deterministic_bytes(tmp_path):
    cfg = wer_config(trials=20)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_wer(cfg), str(a))
    emit_csv(run_wer(cfg), str(b))
    assert a.read_bytes() == b.read_bytes()
