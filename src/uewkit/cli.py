"""Command-line interface: curves, certification, simulation, and bounds.

Every subcommand is reproducible byte-for-byte given identical flags and
seed; every number is written by `witness.written` or `witness.round_up`.
Exit codes: 0 success (a negative verdict is still success), 2 invalid
input, 3 computation unreliable.

The protocol cost is intentionally small: one fixed three-outcome device per
agent, i.e. the number of distinct measurement outcomes grows as 3N with the
number of agents N.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import multipartite, povm, qcore, sampler, witness
from ._optimize import OptimizerSettings, fingerprint_operators

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNRELIABLE = 3


class UnreliableComputation(RuntimeError):
    pass


def _fmt(value):
    """Floats at their written form, for stable serialization; bounds come from `witness.round_up` already."""
    if isinstance(value, float):
        return float(witness.written(value))
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    qcore.save_json(path, _fmt(payload))


def _number(text: str) -> float:
    """Parse a float, accepting fractions like 2/3 for exact parameters."""
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


def _count(text: str) -> int:
    """Parse a whole number in int64 range, accepting forms like 1e6."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = Decimal("nan")
    if not value.is_finite() or value.copy_abs() > np.iinfo(np.int64).max or value != int(value):
        raise argparse.ArgumentTypeError(f"not a whole number in int64 range: {text!r}")
    return int(value)


def _indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad index tuple: {text!r}") from exc


def _decomposition(text: str) -> list[tuple[float, tuple[int, ...]]]:
    """Terms "beta:i,j" separated by ";"."""
    terms = []
    for term in text.split(";"):
        beta, sep, pair = term.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(f"term {term!r} is not of the form beta:i,j")
        terms.append((_number(beta), _indices(pair)))
    return terms


def _settings(args) -> OptimizerSettings:
    return OptimizerSettings(restarts=args.restarts, seed=args.seed)


def _devices(args, parties: int) -> list[povm.Povm]:
    """One frozen --x/--theta device, shared by every party."""
    return [povm.build_three_outcome(povm.ThreeOutcomeParams(x=args.x, theta=args.theta))] * parties


def _build_povms(args, parties: int) -> list[povm.Povm]:
    if args.povm:
        return povm.povm_from_dict(qcore.load_json(args.povm))
    return _devices(args, parties)


def cmd_curve(args) -> int:
    povms = _build_povms(args, 2)
    l_op, c_op = (povm.product_operator(povms, list(i)) for i in (args.l_indices, args.c_indices))
    report = povm.uew_admissibility_check(c_op, l_op)
    # the grid spans the range of C read from the curve's own party blocks, its ends as written
    curve = witness.separability_curve(povms, args.l_indices, args.c_indices, args.grid)
    # exact for a product of effects, the value `bound` writes, rounded up like every bound
    g_s = witness.round_up(witness.product_sew_bound(povms, args.l_indices).value)

    out_csv = Path(args.out)
    witness.curve_to_csv(curve, out_csv)
    summary = {
        "fingerprint": fingerprint_operators(l_op.mat, c_op.mat),
        "reliable": curve.reliable,
        "g_s": g_s,
        "sew_optimum_c": curve.peak.c,
        "c_range": list(curve.c_range),
        "grid_points": args.grid,
        "admissibility": dataclasses.asdict(report),
    }
    if report.commutes:
        summary["warning"] = (
            "constraint and test operators commute: the pair cannot detect "
            "entanglement (the constrained separable bound equals the bound "
            "over all states)"
        )
    # entangled_max, the closed form for x = 2/3 devices on the default pair (--x or --povm), is a bound: rounded up
    closed_form_devices = all(
        isinstance(p, povm.ThreeOutcomePovm) and abs(p.params.x - witness.X_CLOSED_FORM) < 1e-12 for p in povms
    )
    if closed_form_devices and tuple(args.c_indices) == (1, 1) and tuple(args.l_indices) == (2, 2):
        summary["entangled_max"] = [
            {"c": float(c), "value": witness.round_up(witness.entangled_max(float(c)))} for c in curve.c_values
        ]
    _write_json(out_csv.with_suffix(".json"), summary)
    print(f"curve: {len(curve.points)} points, g_s={witness.written(g_s)}, reliable={curve.reliable}")
    if not curve.reliable:
        raise UnreliableComputation("curve has unconverged or non-concave points")
    return EXIT_OK


def cmd_certify(args) -> int:
    counts = sampler.load_counts(args.counts)
    curve_path = Path(args.curve)
    sidecar = curve_path.with_suffix(".json")
    summary = qcore.load_json(sidecar) if sidecar.exists() else {}
    if not isinstance(summary, dict):
        raise ValueError(f"curve summary {sidecar} is not a JSON object")
    curve = witness.curve_from_csv(curve_path)
    if not curve.reliable:
        raise UnreliableComputation("curve file is marked unreliable")
    est = sampler.estimate(counts, args.c_indices, args.l_indices)
    verdict = witness.detect(
        curve, est.c_hat, est.l_hat, est.sigma_c, est.sigma_l, k=args.sigma
    )
    payload = {
        "estimate": dataclasses.asdict(est),
        "verdict": dataclasses.asdict(verdict),
        "inputs": {
            "counts": str(args.counts),
            "curve": str(args.curve),
            "c_indices": list(args.c_indices),
            "l_indices": list(args.l_indices),
        },
    }
    _write_json(Path(args.out), payload)
    print(f"verdict: entangled={verdict.entangled} margin={verdict.margin}")
    return EXIT_OK


def _preset_state(args) -> qcore.DensityMatrix:
    if args.preset == "optimal-entangled":
        state = witness.optimal_entangled_state(args.theta, args.c)
        return qcore.pure_density(state)
    if args.preset == "maximally-mixed":
        return qcore.maximally_mixed((2,) * args.parties)
    if args.preset == "bell":
        vec = np.zeros(4)
        vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
        return qcore.pure_density(qcore.PureState((2, 2), vec))
    raise ValueError(f"unknown preset {args.preset!r}")


def cmd_simulate(args) -> int:
    if bool(args.state) == bool(args.preset):
        raise ValueError("give exactly one of --state or --preset")
    if args.state:
        rho = qcore.density_from_dict(qcore.load_json(args.state))
    elif args.parties < 1:
        raise ValueError(f"parties must be >= 1, got {args.parties}")
    else:
        rho = _preset_state(args)
    povms = _build_povms(args, len(rho.dims) if args.state else args.parties)
    counts = sampler.simulate_counts(rho, povms, shots=args.shots, seed=args.seed)
    sampler.save_counts(args.out, counts)
    print(f"simulated {args.shots} shots over {counts.n_parties} parties -> {args.out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    blocks = sampler.scatter_blocks(_build_povms(args, 2), args.l_indices, args.c_indices, n=args.n, seed=args.seed)
    row = "%.{0}g,%.{0}g\n".format(witness.DIGITS)  # `witness.written` for both numbers, as a %-format
    with open(args.out, "w") as fh:
        fh.write("c,l\n")
        # one %-format per block, written as it is drawn, so memory holds one block whatever --n
        for block in blocks:
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
    print(f"sampled {args.n} product states -> {args.out}")
    return EXIT_OK


def cmd_multiparty(args) -> int:
    if not 2 <= args.agents <= 6:
        raise ValueError("the bounds table covers 2 <= N <= 6 agents")
    if args.c is not None and not args.partition:
        raise ValueError("--c is the partition bound's constraint value: give it with --partition")
    c = 0.0 if args.c is None else args.c
    rows = [
        multipartite.closed_form_bound(args.x, args.agents, m)
        for m in range(1, args.agents + 1)
    ]
    if args.partition:
        # bad input must fail before the table is written
        part = multipartite.Partition.parse(args.partition)
        res = multipartite.numeric_partition_bound(_devices(args, args.agents), part, c=c)
    with open(args.out, "w") as fh:
        fh.write("N,M_k,g\n")
        for r in rows:
            fh.write(f"{r.n_agents},{r.largest_block},{witness.written(witness.round_up(r.g))}\n")
    print(f"bounds table for N={args.agents} -> {args.out}")
    if args.partition:
        payload = {
            "partition": part.label,
            "normalized": multipartite.Partition.format_blocks(part.blocks),
            "c": c,
            "bound": witness.round_up(res.value),
            "converged": res.converged,
        }
        print(json.dumps(_fmt(payload), sort_keys=True))
        if not res.converged:
            raise UnreliableComputation("partition bound did not converge")
    return EXIT_OK


def cmd_tighten(args) -> int:
    counts = sampler.load_counts(args.counts)
    povms = _build_povms(args, counts.n_parties)
    c_measured = counts.frequency(args.constraint)
    result = witness.tighten(povms, args.decomposition, c_measured, args.constraint, settings=_settings(args))
    old, new = witness.round_up(result.old_bound), witness.round_up(result.g_of_c)
    payload = {**dataclasses.asdict(result), "old_bound": old, "g_of_c": new, "constraint": list(args.constraint)}
    _write_json(Path(args.out), payload)
    print(f"tighten: {witness.written(old)} -> {witness.written(new)} (improvement {witness.written(result.improvement)})")
    if not result.converged:
        raise UnreliableComputation("a tighten bound did not converge")
    return EXIT_OK


def cmd_bound(args) -> int:
    settings = _settings(args)
    if args.c is not None and args.direction == "inf":
        raise ValueError("--direction inf takes no --c: a constrained bound is a supremum")
    if args.L or args.C:
        # operators given as matrices take the multistart; device bounds ignore --restarts/--seed
        if not (args.L and args.C):
            raise ValueError("give both --L and --C operator files")
        l_op = qcore.operator_from_dict(qcore.load_json(args.L))
        c_op = qcore.operator_from_dict(qcore.load_json(args.C))
        if args.c is None:
            res = witness.sew_bound(l_op, direction=args.direction, settings=settings)
        else:
            res = witness.constrained_bound(l_op, c_op, args.c, settings=settings)
    else:
        povms = _build_povms(args, 2)
        if args.c is None:
            res = witness.product_sew_bound(povms, args.l_indices, direction=args.direction)
        else:
            res = witness.product_constrained_bound(povms, args.l_indices, args.c_indices, args.c)
    kind = f"sew-{args.direction}" if args.c is None else f"constrained(c={witness.written(args.c)})"
    value = witness.round_up(res.value, args.direction)
    payload = {
        "kind": kind,
        "value": value,
        "feasibility_residual": res.feasibility_residual,
        "restarts_used": res.restarts_used,
        "converged": res.converged,
        "maximizer": [qcore.state_to_dict(f) for f in res.maximizer.factors],
    }
    if args.L:
        payload["settings"] = dataclasses.asdict(settings)
    _write_json(Path(args.out), payload)
    print(f"{kind}: {witness.written(value)} (converged={res.converged})")
    if not res.converged:
        raise UnreliableComputation("bound optimization did not converge")
    return EXIT_OK


def _add_device_flags(p, parties_flag=False, povm_file=True):
    p.add_argument("--x", type=_number, default=2.0 / 3.0, help="device parameter x in (0,1); fractions like 2/3 accepted")
    p.add_argument("--theta", type=_number, default=0.0, help="device phase theta")
    if povm_file:
        p.add_argument("--povm", help="POVM JSON file overriding --x/--theta")
    if parties_flag:
        p.add_argument("--parties", type=int, default=2, help="number of parties")


def _add_pair_flags(p):
    p.add_argument("--c-indices", type=_indices, default=(1, 1), help="constraint outcome pair, 1-based (default 1,1)")
    p.add_argument("--l-indices", type=_indices, default=(2, 2), help="test outcome pair, 1-based (default 2,2)")


def _add_opt_flags(p):
    p.add_argument(
        "--restarts", type=int, default=OptimizerSettings.restarts,
        help="restarts per multistart bound: --L/--C files, and a tighten sum or beta <= 0 term with a party that is not a qubit",
    )
    p.add_argument("--seed", type=int, default=None, help="seed for the multistart restarts")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process on first use."""
    parser = argparse.ArgumentParser(prog="uewkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="compute a separability curve")
    _add_device_flags(p)
    _add_pair_flags(p)
    # accepted because the perfbench `curve` workload passes it; a product curve draws no random starts
    p.add_argument("--seed", type=int, help="no effect: a product curve draws no random starts")
    p.add_argument("--grid", type=int, default=201, help="number of grid points")
    p.add_argument("--out", default="curve.csv", help="output CSV (summary JSON alongside)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("certify", help="entanglement verdict from measured counts")
    p.add_argument("--counts", required=True, help="counts JSON file")
    p.add_argument("--curve", required=True, help="curve CSV from the curve command")
    p.add_argument("--sigma", type=_number, default=3.0, help="error-bar level k (default 3)")
    _add_pair_flags(p)
    p.add_argument("--out", default="verdict.json")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="simulate measurement counts for a state")
    _add_device_flags(p, parties_flag=True)
    p.add_argument("--state", help="state JSON file (density matrix or pure state)")
    p.add_argument("--preset", choices=["optimal-entangled", "maximally-mixed", "bell"])
    p.add_argument("--c", type=_number, default=0.0, help="constraint value for the optimal-entangled preset")
    p.add_argument("--shots", type=_count, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="counts.json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sample", help="scatter of (c, l) over random product states")
    _add_device_flags(p)
    _add_pair_flags(p)
    p.add_argument("--n", type=_count, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="scatter.csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("multiparty", help="multipartite bounds table and partition bounds")
    _add_device_flags(p, povm_file=False)  # the closed forms are formulas in x
    # accepted because the perfbench `bounds` workload passes it; the partition bound draws no random starts
    p.add_argument("--seed", type=int, help="no effect: the partition bound draws no random starts")
    p.add_argument("--agents", type=int, required=True, help="number of agents N (2..6)")
    p.add_argument("--partition", help='partition like "1,2|3" for a numeric bound')
    p.add_argument("--c", type=_number, help="constraint value for the partition bound (default 0); needs --partition")
    p.add_argument("--out", default="bounds.csv")
    p.set_defaults(func=cmd_multiparty)

    p = sub.add_parser("tighten", help="tighten a witnessing bound from measured counts")
    _add_device_flags(p)
    _add_opt_flags(p)
    p.add_argument("--counts", required=True)
    p.add_argument("--decomposition", type=_decomposition, default="1:2,2", help='terms "beta:i,j" separated by ";"')
    p.add_argument("--constraint", type=_indices, default=(1, 1), help="constraint outcome pair")
    p.add_argument("--out", default="tighten.json")
    p.set_defaults(func=cmd_tighten)

    p = sub.add_parser("bound", help="single separable bound (unconstrained or at fixed c)")
    _add_device_flags(p)
    _add_pair_flags(p)
    _add_opt_flags(p)
    p.add_argument("--c", type=_number, default=None, help="constraint value; omit for the unconstrained bound")
    p.add_argument("--direction", choices=["sup", "inf"], default="sup")
    p.add_argument("--L", help="test operator JSON file")
    p.add_argument("--C", help="constraint operator JSON file")
    p.add_argument("--out", default="bound.json")
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnreliableComputation as exc:
        print(f"unreliable: {exc}", file=sys.stderr)
        return EXIT_UNRELIABLE
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
