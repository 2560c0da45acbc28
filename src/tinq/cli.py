"""Command-line interface.

Every subcommand reads networks from JSON files (either the exponent schema or
the physical schema), writes one JSON document to stdout (or --out), and uses
exit codes scripts can branch on: 0 success, 2 usage error, 3 infeasibility
verdict. Floats are serialized with 12 significant digits and -inf becomes
null.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .exceptions import Infeasible, SchemaError, TinqError
from .fixtures import fixture_checksums
from .model import db_setting, parse_network, realize_network
from .optimize import (
    decentralized_gp,
    gp_power_control,
    max_weighted_gdof_exact,
    max_weighted_gdof_lp,
)
from .power import DEFAULT_EPSILON, is_feasible, solve_power_auction, solve_power_hungarian
from .region import check_conditions, tina_polytope, tina_polytope_cyclic
from .schedule import _PASSES, _run_pass, num_run
from .sim import (
    POWER_MODES,
    Scenario,
    run_experiment,
    run_synthetic_experiment,
    scenario1,
    scenario2,
    write_rows_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EMIT_BATCH = 8192  # encoder chunks per write


def _round12(x: float):
    """12-significant-digit float for serialization; non-finite becomes None."""
    if not math.isfinite(x):
        return None
    return float(f"{x:.12g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round12(float(obj))
    return obj


def _emit(obj, out_path=None) -> None:
    """Write ``obj`` as json.dumps(..., indent=2) text and a newline, joining
    the encoder's chunks in batches of EMIT_BATCH, so that the whole text is
    never held at once."""
    chunks = json.JSONEncoder(indent=2).iterencode(_jsonable(obj))
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        while batch := list(itertools.islice(chunks, EMIT_BATCH)):
            fh.write("".join(batch))
        fh.write("\n")


def _csv_floats(text: str) -> list:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _csv_ints(text: str) -> list:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _physical(args, alpha, net):
    """The physical network, realizing exponent-form inputs at --snr-db."""
    if net is not None:
        return net
    return realize_network(alpha, db_setting("snr_db", args.snr_db))


class _Version(argparse.Action):
    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        lines = [f"tinq {__version__}"]
        for name, digest in sorted(fixture_checksums().items()):
            lines.append(f"{name} sha256 {digest}")
        sys.stdout.write("\n".join(lines) + "\n")
        parser.exit(0)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tinq",
        description="TIN GDoF regions, minimal power control, and D2D scheduling",
    )
    p.add_argument("--version", action=_Version,
                   help="print version and reference-network checksums")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, network=True):
        if network:
            sp.add_argument("--network", required=True,
                            help="network JSON file (exponent or physical schema)")
        sp.add_argument("--out", help="write the JSON result here instead of stdout")

    sp = sub.add_parser("region", help="achievable-region constraint bounds")
    add_common(sp)
    sp.add_argument("--subset", help="comma-separated user indices (default all)")
    sp.add_argument("--form", choices=("matching", "cyclic"), default="matching")

    sp = sub.add_parser("power", help="minimal power exponents for a GDoF target")
    add_common(sp)
    sp.add_argument("--gdof", required=True, help="comma-separated targets")
    sp.add_argument("--subset", help="active users (default: support of the target)")
    sp.add_argument("--solver", choices=("hungarian", "auction"), default="hungarian")
    sp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    sp.add_argument("--snap", action="store_true",
                    help="auction only: re-derive exact labels centrally")

    sp = sub.add_parser("feasible", help="is a GDoF target achievable?")
    add_common(sp)
    sp.add_argument("--gdof", required=True)

    sp = sub.add_parser("check", help="strength/topology condition report")
    add_common(sp)

    sp = sub.add_parser("sumgdof", help="maximize weighted sum GDoF")
    add_common(sp)
    sp.add_argument("--weights", required=True, help="comma-separated weights")
    sp.add_argument("--method", choices=("lp", "exact", "gp", "dgp"), default="lp")
    sp.add_argument("--subset")
    sp.add_argument("--snr-db", type=float, default=40.0,
                    help="reference SNR when realizing exponent-form input")
    sp.add_argument("--iters", type=int, default=5000, help="dgp iterations")

    sp = sub.add_parser("schedule", help="run one distributed scheduling pass")
    add_common(sp)
    sp.add_argument("--scheme", choices=_PASSES, required=True)
    # the thresholds start unset: a pass receives only the flags given, so
    # each scheme runs its own library default
    sp.add_argument("--eta", type=float, help="itlinq and itlinq+ SNR exponent")
    sp.add_argument("--gamma", type=float, help="itlinq+ normalization exponent")
    sp.add_argument("--m-db", type=float, help="itlinq margin (dB)")
    sp.add_argument("--sir-db", type=float, help="flashlinq SIR threshold (dB)")
    sp.add_argument("--priority", default="rr",
                    help="'rr' (index order) or a comma-separated permutation")
    sp.add_argument("--snr-db", type=float, default=40.0)

    sp = sub.add_parser("num", help="utility-maximizing scheduling loop")
    add_common(sp)
    sp.add_argument("--fairness", type=float, default=1.0,
                    help="utility family exponent (0 linear, 1 log)")
    sp.add_argument("--v", type=float, default=10.0)
    sp.add_argument("--a-max", type=float, default=1.0)
    sp.add_argument("--slots", type=int, default=1000)
    sp.add_argument("--solver", choices=("exact", "lp", "itlinq+"), default="exact")
    sp.add_argument("--ref-power", type=float, default=1e6)

    sp = sub.add_parser("simulate", help="Monte-Carlo scheduler/power comparison")
    add_common(sp, network=False)
    sp.add_argument("--scenario", type=int, choices=(1, 2), default=1)
    sp.add_argument("--config", help="JSON file with Scenario fields (overrides --scenario)")
    sp.add_argument("--links", type=int, default=16)
    sp.add_argument("--drops", type=int, default=10)
    sp.add_argument("--schemes", default="none,flashlinq,itlinq,itlinq+")
    sp.add_argument("--power-mode", default="full", choices=POWER_MODES)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--csv", help="also write per-drop rows to this CSV file")
    sp.add_argument("--synthetic", action="store_true",
                    help="random-exponent setup instead of geometric drops: all "
                         "links scheduled under full, gp and gp+assignment power, "
                         "serially; --schemes, --power-mode, --jobs, --scenario "
                         "and --config are ignored")
    sp.add_argument("--snr-db", type=float, default=30.0,
                    help="synthetic mode reference SNR")
    return p


def _cmd_region(args, alpha, _net) -> tuple[dict, int]:
    subset = _csv_ints(args.subset) if args.subset else None
    build = tina_polytope if args.form == "matching" else tina_polytope_cyclic
    poly = build(alpha, subset)
    # both forms keep region's (size, lexicographic) order
    cons = [{"users": sorted(users), "bound": bound}
            for users, bound in poly.constraints.items()]
    return {"k": poly.K, "subset": list(poly.subset), "constraints": cons}, EXIT_OK


def _cmd_power(args, alpha, _net) -> tuple[dict, int]:
    d = np.array(_csv_floats(args.gdof))
    subset = _csv_ints(args.subset) if args.subset else None
    rounds = None
    if args.solver == "hungarian":
        r, labels, trace = solve_power_hungarian(alpha, d, subset, return_trace=True)
        rounds = trace.rounds
    else:
        r, labels = solve_power_auction(alpha, d, subset,
                                        epsilon=args.epsilon, snap=args.snap)
    return {
        "r": list(r.r),
        "y_u": list(labels.y_u),
        "y_v": list(labels.y_v),
        "rounds": rounds,
    }, EXIT_OK


def _cmd_feasible(args, alpha, _net) -> tuple[dict, int]:
    d = np.array(_csv_floats(args.gdof))
    ok = is_feasible(alpha, d)
    return {"feasible": bool(ok)}, EXIT_OK if ok else EXIT_INFEASIBLE


def _cmd_check(args, alpha, _net) -> tuple[dict, int]:
    rep = check_conditions(alpha)
    return {
        "gnaj": list(rep.gnaj),
        "c1": list(rep.c1),
        "c2": rep.c2,
        "gnaj_violations": sorted(rep.gnaj_witnesses),
        "c1_violations": sorted(rep.c1_witnesses),
        "c2_witness": list(rep.c2_witness) if rep.c2_witness else None,
        "c2_skipped": rep.c2 is None,
    }, EXIT_OK


def _cmd_sumgdof(args, alpha, net) -> tuple[dict, int]:
    w = np.array(_csv_floats(args.weights))
    subset = _csv_ints(args.subset) if args.subset else None
    if args.method == "lp":
        d, obj = max_weighted_gdof_lp(alpha, subset, w)
        out = {"method": "lp", "d": list(d.d), "objective": obj}
    elif args.method == "exact":
        d, best_subset, obj = max_weighted_gdof_exact(alpha, w, subset)
        out = {"method": "exact", "d": list(d.d), "subset": list(best_subset),
               "objective": obj}
    elif args.method == "gp":
        phys = _physical(args, alpha, net)
        sol = gp_power_control(phys, subset, w)
        out = {
            "method": "gp",
            "powers": list(sol.powers),
            "sinr": list(sol.sinr),
            "objective_bits": sol.objective,
            "subset": list(sol.subset),
        }
    else:
        r, d = decentralized_gp(alpha, subset, w, iters=args.iters)
        out = {"method": "dgp", "r": list(r.r), "d": list(d.d),
               "objective": float(w @ d.d)}
    return out, EXIT_OK


def _cmd_schedule(args, alpha, net) -> tuple[dict, int]:
    phys = _physical(args, alpha, net)
    snr_tab = phys.nominal_snr()
    snr = np.diag(snr_tab).copy()
    # 'rr' is the identity order for a single standalone pass
    priority = None if args.priority == "rr" else _csv_ints(args.priority)

    knobs = {"itlinq+": ("eta", "gamma"), "itlinq": ("eta", "m_db"),
             "flashlinq": ("sir_db",)}[args.scheme]
    res = _run_pass(args.scheme, snr, snr_tab, priority=priority,
                    **{n: getattr(args, n) for n in knobs if getattr(args, n) is not None})
    return {
        "scheme": args.scheme,
        "selected": list(res.selected),
        "messages": res.messages,
        "min_in": {str(k): v for k, v in sorted(res.min_in.items())},
        "min_out": {str(k): v for k, v in sorted(res.min_out.items())},
    }, EXIT_OK


def _cmd_num(args, alpha, _net) -> tuple[dict, int]:
    traj = num_run(alpha, fairness=args.fairness, v=args.v, a_max=args.a_max,
                   t_slots=args.slots, solver=args.solver,
                   ref_power=args.ref_power)
    return {
        "slots": args.slots,
        "solver": args.solver,
        "avg_d": list(traj.final_avg_d),
        "utility": traj.final_utility,
        "final_weights": list(traj.final_weights),
    }, EXIT_OK


def _cmd_simulate(args) -> tuple[dict, int]:
    if args.synthetic:
        res = run_synthetic_experiment(args.links, args.drops, args.seed,
                                       snr_db=args.snr_db)
        scenario_name = f"synthetic@{args.snr_db:g}dB"
        n_links = args.links
    else:
        if args.config:
            with open(args.config) as fh:
                cfg = json.load(fh)
            if not isinstance(cfg, dict):
                raise SchemaError("scenario JSON must be an object")
            try:
                scenario = Scenario(**{"n_links": args.links, **cfg})
            except TypeError as e:  # an unknown or missing field
                raise SchemaError(f"bad scenario: {e}") from None
        else:
            scenario = (scenario1 if args.scenario == 1 else scenario2)(args.links)
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
        res = run_experiment(scenario, schemes, args.drops, args.seed,
                             power_mode=args.power_mode, jobs=args.jobs)
        scenario_name = f"scenario{args.scenario}" if not args.config else "custom"
        n_links = scenario.n_links
    if args.csv:
        write_rows_csv(res.rows, args.csv)
    return {
        "setup": scenario_name,
        "n_links": n_links,
        "n_drops": args.drops,
        "excluded": res.excluded,
        "valid": res.valid,
        "aggregates": [
            {
                "scheme": a.scheme,
                "power_mode": a.power_mode,
                "n": a.n,
                "mean_tput_bps_hz": a.mean_tput,
                "ci95_tput": a.ci95_tput,
                "mean_energy_bits_per_joule": a.mean_energy,
                "ci95_energy": a.ci95_energy,
                "mean_active_links": a.mean_active,
            }
            for a in res.aggregates
        ],
    }, EXIT_OK


_HANDLERS = {
    "region": _cmd_region,
    "power": _cmd_power,
    "feasible": _cmd_feasible,
    "check": _cmd_check,
    "sumgdof": _cmd_sumgdof,
    "schedule": _cmd_schedule,
    "num": _cmd_num,
    "simulate": _cmd_simulate,
}


def dispatch(argv) -> int:
    """Parse argv (no program name), run the chosen subcommand on its network
    and write the one JSON document that results. An infeasibility verdict is
    such a document, with exit 3; a failure to read, validate or write is a
    usage error, with exit 2."""
    args = _build_parser().parse_args(argv)
    try:
        try:
            network = ()
            if "network" in args:
                with open(args.network) as fh:
                    network = parse_network(json.load(fh))
            doc, code = _HANDLERS[args.command](args, *network)
        except Infeasible as e:
            doc, code = {"infeasible": True, "error": str(e)}, EXIT_INFEASIBLE
        _emit(doc, args.out)
        if doc.get("infeasible"):
            print(f"infeasible: {doc['error']}", file=sys.stderr)
        return code
    except (TinqError, ValueError, IndexError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
