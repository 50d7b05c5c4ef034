"""Command-line pipeline: generate, measure, reconstruct, compare, sweep.

Every subcommand exchanges data through JSON (counts; operators and
window data, whose float arrays go to a `.f64` companion) or CSV
(sweeps), takes explicit seeds for anything random, and prints a small
machine-readable JSON result to stdout. Errors exit nonzero
with a one-line JSON error record on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .files import companion, write_json
from .measurement import (MLE_MAX_ITER, MLE_TOL, add_gaussian_noise,
                          block_data_from_counts, exact_block_data,
                          load_block_data, load_counts, save_block_data,
                          save_counts, simulate_counts)
from .metrics import compare_states
from .operators import (DenseOperator, load_operator, mpo_from_dense,
                        save_operator)
from .reconstruction import (ReconstructionConfig, check_invertibility_dense,
                             check_invertibility_mpo_spans, reconstruct_mpo)
from .states import FAMILIES, make_state
from .sweep import run_sweep, sweep_config_from_json

_FAMILY_ALIASES = {
    "critical-ising": "critical_ising",
    "random-nn": "random_next_neighbour",
    "random-mpo": "random_mpo",
    "w": "w", "ghz": "ghz", "product": "product",
}


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _cmd_gen_state(args) -> int:
    family = _FAMILY_ALIASES[args.family]
    # an option the family does not read is an error, not silently ignored
    options = {name: getattr(args, name)
               for name in ("beta", "t_hnorm", "phases", "seed")
               if getattr(args, name) is not None}
    for name in options:
        if name not in FAMILIES[family]:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to "
                             f"family {family!r}")
    if "phases" in options:
        options["phases"] = ([float(x) for x in args.phases.split(",")]
                             if args.phases else None)
    state = make_state(family, args.n, **options)
    mpo = mpo_from_dense(state) if isinstance(state, DenseOperator) else state
    dense = state.to_dense() if args.n <= args.dense_max_sites else None
    written = []
    for op, path in ((mpo, f"{args.out}.mpo.json"),
                     (dense, f"{args.out}.dense.json")):
        if op is not None:
            save_operator(op, path)
            written += [path, companion(path)]
    _emit({"written": written, "family": family, "n_sites": args.n})
    return 0


def _cmd_measure(args) -> int:
    state = load_operator(args.state)
    if args.shots is not None:
        # counts carry no Gaussian noise
        if args.sigma != 0.0 or args.keep_identity_exact:
            flag = "--sigma" if args.sigma != 0.0 else "--keep-identity-exact"
            raise ValueError(f"{flag} does not apply with --shots")
        blocks = simulate_counts(state, args.r, args.shots, seed=args.seed)
        save_counts(blocks, state.n_sites, args.out)
        _emit({"written": [args.out], "kind": "counts",
               "n_blocks": len(blocks), "shots": args.shots})
        return 0
    if args.sigma == 0.0 and (args.seed is not None
                              or args.keep_identity_exact):
        # exact window data draw nothing and carry no noise
        flag = "--seed" if args.seed is not None else "--keep-identity-exact"
        raise ValueError(f"{flag} does not apply to exact window data "
                         "(no --sigma or --shots)")
    data = exact_block_data(state, args.r)
    if args.sigma != 0.0:  # add_gaussian_noise rejects a bad sigma
        data = add_gaussian_noise(data, args.sigma, seed=args.seed,
                                  perturb_identity=not args.keep_identity_exact)
    save_block_data(data, args.out)
    _emit({"written": [args.out, companion(args.out)], "kind": "block_data",
           "n_blocks": data.n_blocks, "sigma": args.sigma})
    return 0


def _cmd_reconstruct(args) -> int:
    data = load_block_data(args.data)
    cfg = ReconstructionConfig(l=args.l, r=args.r, normalize=args.normalize)
    mpo, report = reconstruct_mpo(data, cfg, with_report=True)
    save_operator(mpo, args.out)
    written = [args.out, companion(args.out)]
    if args.report:
        write_json(args.report, report.to_dict(), indent=1)
        written.append(args.report)
    _emit({"written": written, "solver_mode": report.mode,
           "bond_dims": mpo.bond_dims, "trace": mpo.trace})
    return 0


def _cmd_compare(args) -> int:
    ref = load_operator(args.ref)
    est = load_operator(args.est)
    report = compare_states(ref, est, w_fidelity=args.w_fidelity)
    if args.out:
        write_json(args.out, report.to_dict(), indent=1)
    _emit(report.to_dict())
    return 0


def _cmd_check_invertibility(args) -> int:
    state = load_operator(args.state)
    dense = isinstance(state, DenseOperator)
    check = (check_invertibility_dense if dense
             else check_invertibility_mpo_spans)
    payload = {**check(state, args.l, args.r).to_dict(),
               "check": "dense_ranks" if dense else "tensor_spans"}
    if args.out:
        write_json(args.out, payload, indent=1)
    _emit(payload)
    return 0


def _cmd_sweep(args) -> int:
    cfg = sweep_config_from_json(args.config)
    rows, summaries = run_sweep(cfg, out_csv=args.out,
                                summary_csv=args.summary,
                                timing_csv=args.timing)
    written = [p for p in (args.out, args.summary, args.timing) if p]
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    _emit({"written": written, "n_trials": len(rows), "n_ok": n_ok})
    return 0


def _cmd_ingest_counts(args) -> int:
    blocks, n_sites = load_counts(args.counts)
    data = block_data_from_counts(blocks, n_sites, tol=args.tol,
                                  max_iter=args.max_iter)
    save_block_data(data, args.out)
    _emit({"written": [args.out, companion(args.out)],
           "n_blocks": data.n_blocks, "width": data.width})
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mpotomo",
        description="Matrix-product reconstruction from window expectations")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-state", help="generate a reference state")
    g.add_argument("--family", required=True, choices=sorted(_FAMILY_ALIASES))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--beta", type=float, default=None,
                   help="inverse temperature of the thermal families "
                        "(default 5)")
    g.add_argument("--seed", type=int, default=None,
                   help="draws random-nn and random-mpo states")
    g.add_argument("--t-hnorm", type=float, default=None,
                   help="coupling strength of random-mpo (default 0.01)")
    g.add_argument("--phases", type=str, default=None,
                   help="comma-separated branch phases for the w family")
    g.add_argument("--dense-max-sites", type=int, default=8)
    g.add_argument("--out", required=True, help="output path prefix")
    g.set_defaults(func=_cmd_gen_state)

    m = sub.add_parser("measure", help="window data or counts from a state")
    m.add_argument("--state", required=True)
    m.add_argument("--r", type=int, required=True, help="window width")
    m.add_argument("--sigma", type=float, default=0.0)
    m.add_argument("--shots", type=int, default=None,
                   help="simulate projective counts instead")
    m.add_argument("--seed", type=int, default=None)
    m.add_argument("--keep-identity-exact", action="store_true")
    m.add_argument("--out", required=True)
    m.set_defaults(func=_cmd_measure)

    r = sub.add_parser("reconstruct", help="matrix-product estimate from data")
    r.add_argument("--data", required=True)
    r.add_argument("--l", type=int, default=None)
    r.add_argument("--r", type=int, default=None)
    r.add_argument("--normalize", action="store_true")
    r.add_argument("--out", required=True)
    r.add_argument("--report", default=None)
    r.set_defaults(func=_cmd_reconstruct)

    c = sub.add_parser("compare", help="distance metrics between two states")
    c.add_argument("--ref", required=True)
    c.add_argument("--est", required=True)
    c.add_argument("--w-fidelity", action="store_true")
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_compare)

    i = sub.add_parser("check-invertibility", help="rank or span diagnostics")
    i.add_argument("--state", required=True)
    i.add_argument("--l", type=int, required=True)
    i.add_argument("--r", type=int, required=True)
    i.add_argument("--out", default=None)
    i.set_defaults(func=_cmd_check_invertibility)

    s = sub.add_parser("sweep", help="grid sweep driven by a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True, help="per-trial CSV")
    s.add_argument("--summary", default=None, help="per-cell CSV")
    s.add_argument("--timing", default=None,
                   help="wall-clock sidecar CSV (not reproducible)")
    s.set_defaults(func=_cmd_sweep)

    n = sub.add_parser("ingest-counts", help="counts to window data via "
                                             "local likelihood fits")
    n.add_argument("--counts", required=True)
    n.add_argument("--out", required=True)
    n.add_argument("--tol", type=float, default=MLE_TOL,
                   help="bound on each fit's KKT residual")
    n.add_argument("--max-iter", type=int, default=MLE_MAX_ITER)
    n.set_defaults(func=_cmd_ingest_counts)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built on its first call. Parsing leaves a parser as
    it was, so every later call in the process reuses this one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
