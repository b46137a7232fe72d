import csv
import gc
import json
import sys
import warnings

import numpy as np
import pytest

from lpldpc import emit_alist, enumerate_codewords, generate_regular, lp_decode, parse_alist
from lpldpc.cli import main
from lpldpc.simcli import ExperimentConfig, emit_csv, run_witness_rate

from oracles import var_regular_graph


def write_graph(tmp_path, g, name="g.alist"):
    path = tmp_path / name
    path.write_text(emit_alist(g))
    return str(path)


def write_llr(tmp_path, values, name="llr.txt"):
    path = tmp_path / name
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    return str(path)


def test_gen_writes_parseable_alist(tmp_path, capsys):
    out = tmp_path / "gen.alist"
    code = main(["gen", "--n", "12", "--dv", "3", "--dc", "4",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    g = parse_alist(out.read_text())
    assert (g.regular_var_degree, g.regular_check_degree) == (3, 4)
    assert g == generate_regular(12, 3, 4, seed=5)
    assert "wrote" in capsys.readouterr().out


def test_gen_reports_divisibility_error(tmp_path, capsys):
    code = main(["gen", "--n", "10", "--dv", "3", "--dc", "4",
                 "--seed", "1", "--out", str(tmp_path / "x.alist")])
    assert code == 1
    assert "divisible" in capsys.readouterr().err


def test_gen_names_acceptance_rate_at_large_check_degree(tmp_path, capsys):
    # at d_c = 11 a sample is simple with probability about exp(-10); seed 0
    # exhausts the resamples
    code = main(["gen", "--n", "44", "--dv", "3", "--dc", "11",
                 "--seed", "0", "--out", str(tmp_path / "x.alist")])
    assert code == 1
    err = capsys.readouterr().err
    assert "no simple (3, 11)-regular graph found in 10000 resamples" in err
    assert "exp(-(d_v-1)(d_c-1)/2) = 4.5e-05" in err
    assert "variable-regular graph as alist" in err and "--graph" in err
    assert not (tmp_path / "x.alist").exists()


def test_gen_impossible_degrees_keep_their_error(tmp_path, capsys):
    code = main(["gen", "--n", "4", "--dv", "3", "--dc", "6",
                 "--seed", "0", "--out", str(tmp_path / "x.alist")])
    assert code == 1
    err = capsys.readouterr().err
    assert "no simple graph exists" in err and "exp(" not in err


def test_decode_noiseless(tmp_path, capsys):
    g = generate_regular(8, 3, 4, seed=2)
    gp = write_graph(tmp_path, g)
    lp = write_llr(tmp_path, np.ones(8))
    assert main(["decode", "--graph", gp, "--llr", lp]) == 0
    out = capsys.readouterr().out
    assert "status integral" in out
    assert "codeword 00000000" in out
    assert "objective 8.0" in out


def test_decode_reports_uniqueness_and_pivots(tmp_path, capsys):
    # LLR signs that form a nonzero codeword are decoded without an LP; one
    # LLR of 1e-9 sends the same word to the LP, whose pivots are printed
    g = generate_regular(24, 3, 4, seed=3)
    gp = write_graph(tmp_path, g)
    word = next(w for w in enumerate_codewords(g) if w.any())
    lam = np.where(word == 1, -1.0, 1.0) * np.linspace(0.5, 2.0, g.n)
    assert main(["decode", "--graph", gp, "--llr", write_llr(tmp_path, lam)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "status integral"
    assert lines[1] == "codeword " + "".join(map(str, word))
    assert lines[3:] == ["uniqueness hard_decision", "pivots 0 0"]
    lam[np.flatnonzero(word == 0)[0]] = 1e-9
    assert main(["decode", "--graph", gp, "--llr", write_llr(tmp_path, lam)]) == 0
    out = lp_decode(g, lam)
    lines = capsys.readouterr().out.splitlines()
    assert out.stats["uniqueness"] in ("certified", "probed")
    assert lines[-2:] == [f"uniqueness {out.stats['uniqueness']}",
                          f"pivots {out.stats['main_pivots']} {out.stats['probe_pivots']}"]
    assert out.stats["main_pivots"] > 0


def test_decode_with_map_and_comma_file(tmp_path, capsys):
    g = generate_regular(8, 3, 4, seed=2)
    gp = write_graph(tmp_path, g)
    path = tmp_path / "llr.csv"
    path.write_text(",".join(["2.5"] * 8))
    assert main(["decode", "--graph", gp, "--llr", str(path),
                 "--map", "threshold:1.0"]) == 0
    assert "status integral" in capsys.readouterr().out


def test_decode_closes_llr_file(tmp_path, capsys, monkeypatch):
    # An unclosed file warns when it is collected, inside a finalizer, so
    # the warning-turned-error reaches sys.unraisablehook, not the caller.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    g = generate_regular(8, 3, 4, seed=2)
    gp = write_graph(tmp_path, g)
    lp = write_llr(tmp_path, np.ones(8))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert main(["decode", "--graph", gp, "--llr", lp]) == 0
        gc.collect()
    assert [u.exc_type for u in unraisable] == []
    assert "status integral" in capsys.readouterr().out


def test_decode_length_mismatch(tmp_path, capsys):
    g = generate_regular(8, 3, 4, seed=2)
    gp = write_graph(tmp_path, g)
    lp = write_llr(tmp_path, np.ones(5))
    assert main(["decode", "--graph", gp, "--llr", lp]) == 1
    assert "error" in capsys.readouterr().err


def test_decode_bad_map(tmp_path, capsys):
    g = generate_regular(8, 3, 4, seed=2)
    gp = write_graph(tmp_path, g)
    lp = write_llr(tmp_path, np.ones(8))
    assert main(["decode", "--graph", gp, "--llr", lp, "--map", "clip:2"]) == 1


def test_pseudo_prints_completion(tmp_path, capsys):
    g = generate_regular(16, 3, 4, seed=0)
    gp = write_graph(tmp_path, g)
    assert main(["pseudo", "--graph", gp, "--root", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("omega ")
    assert "alpha_max" in out and "pseudoweight" in out and "bound" in out


def test_witness_full_report(tmp_path, capsys):
    g = var_regular_graph(10, 25, 130, seed=1)
    gp = write_graph(tmp_path, g)
    lam = np.ones(10)
    lam[3] = -0.4
    lp = write_llr(tmp_path, lam)
    assert main(["witness", "--graph", gp, "--llr", lp]) == 0
    out = capsys.readouterr().out
    assert "s_star" in out
    # 38 of its 130 checks have degree 1, and peeling frees every variable
    assert "s_star 1.0\ncore 0 of 10 variables\n" in out
    assert "U 3" in out
    assert "kappa_interval" in out
    assert "matching" in out


def test_witness_small_degree_graph_omits_params(tmp_path, capsys):
    g = generate_regular(8, 3, 4, seed=2)
    gp = write_graph(tmp_path, g)
    lp = write_llr(tmp_path, np.ones(8))
    assert main(["witness", "--graph", gp, "--llr", lp]) == 0
    out = capsys.readouterr().out
    assert "s_star" in out
    assert "\ncore 8 of 8 variables\n" in out  # regular, so no check has degree 1
    assert "proof parameters n/a" in out


def test_expand_ok_and_violation(tmp_path, capsys):
    g = generate_regular(12, 3, 4, seed=1)
    gp = write_graph(tmp_path, g)
    assert main(["expand", "--graph", gp, "--smax", "1", "--beta", "3"]) == 0
    assert capsys.readouterr().out.startswith("ok")
    assert main(["expand", "--graph", gp, "--smax", "2", "--beta", "3"]) == 0
    # beta = d_v can fail at pairs; either verdict prints something sensible
    assert capsys.readouterr().out.strip()


def test_sim_wer_end_to_end(tmp_path, capsys):
    cfg = {
        "graph": {"n": 8, "dv": 3, "dc": 4, "seed": 2},
        "maps": ["trivial", "quantize2:1"],
        "sigma2": [0.2, 0.6],
        "trials": 10,
        "seed": 4,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "results.csv"
    assert main(["sim", "wer", "--config", str(cfg_path), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["map"] for r in rows} == {"trivial", "quantize2:1"}
    for r in rows:
        assert int(r["mismatch"]) + int(r["fractional"]) + int(r["tie"]) == int(r["failures"])
    assert "wrote" in capsys.readouterr().out


def test_sim_pseudo_scan_end_to_end(tmp_path):
    cfg = {
        "seed": 5,
        "trials": 1,
        "scan": {"n_values": [16], "dv": 3, "dc": 4, "graphs_per_n": 1, "roots_per_graph": 2},
        "out": str(tmp_path / "scan.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sim", "pseudo-scan", "--config", str(cfg_path)]) == 0
    with open(cfg["out"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(float(r["pseudoweight"]) <= float(r["bound"]) for r in rows)


def test_sim_witness_rate_end_to_end(tmp_path):
    cfg = {
        "graph": {"path": write_graph(tmp_path, var_regular_graph(12, 25, 375, seed=0))},
        "maps": ["threshold:1.0"], "sigma2": [0.0625, 0.25], "trials": 3, "seed": 1,
        "proof": {"w": 1.0, "verify_smax": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "rate.csv"
    assert main(["sim", "witness-rate", "--config", str(cfg_path), "--out", str(out)]) == 0
    want = tmp_path / "want.csv"
    emit_csv(run_witness_rate(ExperimentConfig.from_json({**cfg, "mode": "witness-rate"})), want)
    assert out.read_bytes() == want.read_bytes()
    assert out.read_text().startswith("sigma2,trials,witness_positive,")


def test_sim_missing_out_is_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "graph": {"n": 8, "dv": 3, "dc": 4, "seed": 2},
        "maps": ["trivial"], "sigma2": [0.5], "trials": 2, "seed": 0,
    }))
    assert main(["sim", "wer", "--config", str(cfg_path)]) == 1
    assert "out" in capsys.readouterr().err


_WER = {"graph": {"n": 8, "dv": 3, "dc": 4, "seed": 2}, "maps": ["trivial"],
        "sigma2": [0.5], "trials": 2}


@pytest.mark.parametrize("mode, cfg, key", [
    pytest.param("wer", {**_WER, "seed": 1.7}, "seed", id="fractional-seed"),
    pytest.param("wer", {**_WER, "random_codeword": "false"}, "random_codeword",
                 id="string-flag"),
    pytest.param("wer", {**_WER, "random_codword": True}, "random_codword", id="misspelled-key"),
    pytest.param("pseudo-scan", {"scan": {"dv": 3, "dc": 4}}, "n_values", id="scan-without-sizes"),
    pytest.param("pseudo-scan", {"scan": [[16], 3, 4]}, "scan", id="scan-as-list"),
    pytest.param("wer", {**_WER, "trials": "5"}, "trials", id="string-trials"),
    pytest.param("wer", {**_WER, "trials": 2.5}, "trials", id="fractional-trials"),
    pytest.param("wer", {**_WER, "graph": "g.alist"}, "graph", id="graph-not-an-object"),
    pytest.param("wer", {**_WER, "maps": ["threshold:abc"]}, "maps", id="map-that-does-not-parse"),
    pytest.param("wer", {**_WER, "sigma2": [10**400]}, "sigma2", id="number-beyond-float"),
    pytest.param("wer", {**_WER, "scan": {"n_values": [16], "dv": 3, "dc": 4}}, "scan",
                 id="scan-in-wer"),
    pytest.param("witness-rate", {**_WER, "maps": ["threshold:1.0"], "random_codeword": True},
                 "random_codeword", id="random-codeword-in-witness-rate"),
    pytest.param("pseudo-scan", {"scan": {"n_values": [16], "dv": 3, "dc": 4}, "trials": 50},
                 "trials", id="trials-in-pseudo-scan"),
    pytest.param("wer", {**_WER, "maps": []}, "maps", id="wer-without-maps"),
    pytest.param("witness-rate", {**_WER, "maps": ["threshold:1.0"], "sigma2": []}, "sigma2",
                 id="witness-rate-without-sigma2"),
    pytest.param("pseudo-scan", {"seed": 1}, "scan", id="pseudo-scan-without-scan"),
])
def test_sim_bad_config_reports_error(tmp_path, capsys, mode, cfg, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert main(["sim", mode, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"'{key}'" in err[0]
    assert not out.exists()
