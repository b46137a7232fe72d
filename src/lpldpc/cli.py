"""Command line interface.

Subcommands: ``gen`` (random regular graph to alist), ``decode`` (LP decode
an LLR file), ``pseudo`` (tier completion at a root), ``witness`` (certificate
search for an LLR file), ``expand`` (brute-force expansion check), and
``sim <mode>`` (Monte Carlo experiments to CSV, one subcommand per mode).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .channel import MapSpec
from .lpdec import lp_decode
from .pseudo import awgnc_pseudoweight, canonical_completion, pseudoweight_bound
from .simcli import MODES, ExperimentConfig, GraphSource, emit_csv
from .tanner import GenerationError, emit_alist, generate_regular
from .witness import ParameterError, boundary_set, check_expansion, derive_params, \
    find_delta_matching, high_noise_set, stopping_core, witness_search


def _load_graph(path):
    return GraphSource(path=path).load()


def _load_llr(path):
    """The LLR file's values; the decoder and the witness LP check them."""
    with open(path, "r") as fh:
        return np.array([float(tok) for tok in fh.read().replace(",", " ").split()])


def _cmd_gen(args):
    try:
        g = generate_regular(args.n, args.dv, args.dc, args.seed)
    except GenerationError as exc:
        if args.dv > args.n * args.dv // args.dc or args.dc > args.n:
            raise  # no simple graph exists at these degrees
        rate = math.exp(-(args.dv - 1) * (args.dc - 1) / 2)
        raise GenerationError(
            f"{exc}: a configuration-model sample is simple with probability about "
            f"exp(-(d_v-1)(d_c-1)/2) = {rate:.2g}; for large check degrees, write a "
            f"variable-regular graph as alist and pass it with --graph or a config's "
            f"graph path"
        ) from exc
    with open(args.out, "w") as fh:
        fh.write(emit_alist(g))
    print(f"wrote {args.out} (n={g.n}, m={g.m})")
    return 0


def _cmd_decode(args):
    g = _load_graph(args.graph)
    lam = _load_llr(args.llr)
    lamp = MapSpec.parse(args.map).apply(lam)
    out = lp_decode(g, lamp)
    print(f"status {out.status}")
    if out.status == "integral":
        print("codeword " + "".join(str(int(b)) for b in out.codeword))
    else:
        print("vertex " + " ".join(repr(float(v)) for v in out.vertex))
    print(f"objective {out.objective!r}")
    print(f"uniqueness {out.stats['uniqueness']}")
    print(f"pivots {out.stats['main_pivots']} {out.stats['probe_pivots']}")
    return 0


def _cmd_pseudo(args):
    g = _load_graph(args.graph)
    pcw, alpha = canonical_completion(g, args.root)
    wp = awgnc_pseudoweight(pcw)
    print("omega " + " ".join(repr(float(v)) for v in pcw.omega))
    print(f"alpha_max {alpha!r}")
    print(f"pseudoweight {wp!r}")
    d_v, d_c = g.regular_var_degree, g.regular_check_degree
    if 3 <= d_v < d_c:
        print(f"bound {pseudoweight_bound(d_v, d_c, g.n).bound!r}")
    else:
        print("bound n/a (needs 3 <= d_v < d_c)")
    return 0


def _cmd_witness(args):
    g = _load_graph(args.graph)
    lamp = _load_llr(args.llr)
    s_star = witness_search(g, lamp)
    u = high_noise_set(lamp)
    print(f"s_star {s_star!r}")
    print(f"core {np.count_nonzero(stopping_core(g))} of {g.n} variables")
    print("U " + (" ".join(map(str, np.flatnonzero(u).tolist())) or "(empty)"))
    if g.regular_var_degree is None:
        print("proof parameters n/a (graph is not variable-regular)")
        return 0
    try:
        params = derive_params(args.w, g.regular_var_degree, args.delta_hat)
    except ParameterError as exc:
        print(f"proof parameters n/a ({exc})")
        return 0
    print(f"kappa_interval ({params.kappa_lo!r}, {params.kappa_hi!r})")
    udot = boundary_set(g, u, params)
    print("Udot " + (" ".join(map(str, np.flatnonzero(udot).tolist())) or "(empty)"))
    owner = find_delta_matching(g, u, udot, params)
    if owner is None:
        print("matching none")
    else:
        print(f"matching found ({np.count_nonzero(owner >= 0)} edges)")
    return 0


def _cmd_expand(args):
    g = _load_graph(args.graph)
    verdict = check_expansion(g, args.beta, args.smax)
    if verdict.ok:
        print(f"ok (checked {verdict.subsets_checked} subsets up to size {args.smax})")
    else:
        print("violated by S = {" + " ".join(str(i) for i in verdict.violating) + "}"
              f" with {verdict.neighbor_count} neighbors < {verdict.required!r}")
    return 0


def _cmd_sim(args):
    config = ExperimentConfig.from_json(args.config, mode=args.sim_mode)
    out = args.out or config.out
    if out is None:
        raise ValueError("no output path: give --out or an 'out' config entry")
    mode = MODES[args.sim_mode]
    rows = mode.run(config)
    emit_csv(rows, out, row_type=mode.row_type)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="lpldpc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random regular graph as alist")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dv", type=int, required=True)
    p.add_argument("--dc", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("decode", help="LP decode an LLR file")
    p.add_argument("--graph", required=True)
    p.add_argument("--llr", required=True)
    p.add_argument("--map", default="trivial",
                   help="trivial | threshold:W | quantize2:L (default trivial)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("pseudo", help="tier completion at a root")
    p.add_argument("--graph", required=True)
    p.add_argument("--root", type=int, required=True)
    p.set_defaults(func=_cmd_pseudo)

    p = sub.add_parser("witness", help="search for a decoding-success certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--llr", required=True)
    p.add_argument("--w", type=float, default=1.0, help="truncation value (default 1.0)")
    p.add_argument("--delta-hat", type=float, default=None, dest="delta_hat")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("expand", help="brute-force expansion check")
    p.add_argument("--graph", required=True)
    p.add_argument("--smax", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("sim", help="Monte Carlo experiments to CSV")
    simsub = p.add_subparsers(dest="sim_mode", required=True)
    for mode in MODES:
        sp = simsub.add_parser(mode)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", default=None, help="CSV path (overrides the config)")
        sp.set_defaults(func=_cmd_sim)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
