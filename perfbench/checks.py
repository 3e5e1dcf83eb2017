"""Oracle checks of every benchmark op, run outside the timed phase.

An op is one curve point, one bound or tighten request, one simulate+certify
(or sample) request, or one partition bound.  Each op gets a signed error
(value - oracle, oriented so that a negative error is on the unsound side),
a `fail` flag (nonzero exit, unconverged or unreliable result, or an oracle
miss beyond the acceptance suite's tolerance) and an `unsound` flag where an
attainable oracle value exists (None where it does not).

Oracles are the repository's independent ones: `semianalytic_pair_bound`
(per-qubit reduction) for the default operator family, the per-party
eigenvalue product for SEW bounds, `closed_form_bound` for c = 0 partition
bounds, `is_ppt` for certify verdicts, and the criterion-3 chord and
`<= g_s + 1e-9` tests for curves.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import uewkit as uk

BOUND_TOL = 2e-3  # acceptance tolerance for numeric bounds (criteria 2, 6, 10)
SEW_TOL = 1e-6  # acceptance tolerance for SEW bounds (criterion 1)
CHORD_TOL = 1e-6  # criterion 3 midpoint chord test
GS_SLACK = 1e-9  # criterion 3: curve never above g_s + 1e-9
UNSOUND_TOL = 1e-9  # below an attainable oracle by more than this is unsound
IMPROVEMENT_TOL = 1e-9  # criterion 10: tightening never worse
ESTIMATE_SIGMAS = 6.0  # simulated frequencies within 6 binomial sigmas of exact
UNSOUND_VERDICT = "entangled verdict on a PPT state"
LOW_C = 2e-3  # extent of the known low-c defect (below 1e-12 error from c = 3e-3 up)

# Baseline defects of the program that the benchmark counts (in fail_ratio and
# unsound_ratio) but that do not make a run `correct: false`.  Anything that
# fails or is unsound outside these classes is unexpected.
KNOWN_DEFECTS = {
    "low-c": (
        "bound-valued ops at or near the c = 0 end (curve endpoint, bound --c 0, "
        "tighten at small measured c) lie below g(c) while flagged converged: "
        "2e-5..6e-5 at c = 0, falling to 3e-9 at c = 7e-4 (x = 2/3)"
    ),
    "boundary-tail": (
        "certify --sigma 3 calls the product state |H> x (top eigenvector of Pi_2), "
        "which sits exactly on g(0) = 1/3, entangled in the 3-sigma tail of its "
        "1e6-shot estimate (3 of 2,610 such requests over ten seeds; the low-c "
        "curve offset adds to the one-sided 0.13 % tail)"
    ),
    "partition-c0": (
        "c = 0 partition bounds lie below the closed form: 4e-8..1.2e-3 for most "
        "partitions, and 1|2|3|4 misses by 3e-2..1.2e-1 while flagged converged"
    ),
}

# local-unitary images of the default pair (Pi_3 = Z Pi_2 Z, Z Pi_1 Z = Pi_1),
# so the per-qubit reduction is their exact oracle too
SEMIANALYTIC_DECOMPOSITIONS = {"1:2,2", "1:2,3"}


def number(text: str) -> float:
    """Parse numbers exactly as the CLI does (fractions like 2/3 accepted)."""
    return float(Fraction(text)) if "/" in text else float(text)


def _op(request, kind, **fields):
    op = {
        "request": request["id"], "kind": kind, "c": None, "value": None,
        "oracle": None, "signed_err": None, "fail": False, "unsound": None,
        "why": "", "known": None,
    }
    op.update(fields)
    return op


def _fail(op, why):
    op["fail"] = True
    op["why"] = (op["why"] + "; " if op["why"] else "") + why


def _against(op, value, oracle, tol):
    """Signed error against an attainable oracle value."""
    err = value - oracle
    op.update(value=value, oracle=oracle, signed_err=err, unsound=err < -UNSOUND_TOL)
    if abs(err) > tol:
        _fail(op, f"misses oracle by {err:+.3e}")


def _rc_ok(op, result):
    if result["error"] or any(rc != 0 for rc in result["rcs"]):
        _fail(op, f"exit codes {result['rcs']} {result['error'] or ''}".strip())
        return False
    return True


def _device(x: float, theta: float = 0.0):
    return uk.build_three_outcome(uk.ThreeOutcomeParams(x, theta))


def _sew_oracle(x: float, direction: str) -> float:
    """Extremum of <Pi_2 x Pi_2> over product states: product of eigenvalues."""
    eig = np.linalg.eigvalsh(_device(x).effect(2).op.mat)
    return float(eig[-1] ** 2 if direction == "sup" else eig[0] ** 2)


def check_curve(request, result) -> list[dict]:
    meta = request["meta"]
    x = number(meta["x"])
    csv_path, json_path = (Path(p) for p in request["outputs"])
    if not csv_path.exists() or not json_path.exists():
        op = _op(request, "curve")
        _rc_ok(op, result)
        _fail(op, "missing curve output")
        return [dict(op) for _ in range(meta["grid"])]
    rows = list(csv.DictReader(csv_path.open(newline="")))
    summary = json.loads(json_path.read_text())
    cs = [float(r["c"]) for r in rows]
    gs = [float(r["g"]) for r in rows]
    ops = []
    for j, row in enumerate(rows):
        op = _op(request, "curve", c=cs[j])
        _rc_ok(op, result)
        if row["converged"] != "true":
            _fail(op, "unconverged point")
        try:
            _against(op, gs[j], uk.semianalytic_pair_bound(x, cs[j]), BOUND_TOL)
        except ValueError as exc:
            _fail(op, f"oracle rejects c: {exc}")
        if 0 < j < len(rows) - 1:
            op["chord_gap"] = (gs[j - 1] + gs[j + 1]) / 2.0 - gs[j]
            if op["chord_gap"] > CHORD_TOL:
                _fail(op, f"chord gap {op['chord_gap']:+.2e}")
        if gs[j] > summary["g_s"] + GS_SLACK:
            _fail(op, "above g_s")
        ops.append(op)
    if len(rows) != meta["grid"]:
        missing = _op(request, "curve")
        _fail(missing, f"{len(rows)} rows for grid {meta['grid']}")
        ops += [dict(missing) for _ in range(max(meta["grid"] - len(rows), 0))]
    return ops


def check_bound(request, result) -> list[dict]:
    meta = request["meta"]
    x = number(meta["x"])
    op = _op(request, "bound")
    if not _rc_ok(op, result):
        return [op]
    out = json.loads(Path(request["outputs"][0]).read_text())
    if not out["converged"]:
        _fail(op, "unconverged")
    if meta.get("c") is None:
        oracle = _sew_oracle(x, meta["direction"])
        # orient the error so that negative means "claims less than attainable"
        sign = 1.0 if meta["direction"] == "sup" else -1.0
        _against(op, sign * out["value"], sign * oracle, SEW_TOL)
    else:
        op["c"] = number(meta["c"])
        _against(op, out["value"], uk.semianalytic_pair_bound(x, op["c"]), BOUND_TOL)
    return [op]


def check_tighten(request, result) -> list[dict]:
    meta = request["meta"]
    x = number(meta["x"])
    op = _op(request, "tighten")
    if not _rc_ok(op, result):
        return [op]
    out = json.loads(Path(request["outputs"][0]).read_text())
    op["c"] = out["c"]
    measured = uk.load_counts(request["inputs"][0]).frequency((1, 1))
    if abs(out["c"] - min(measured, x * x)) > 1e-9:
        _fail(op, f"c {out['c']} is not the measured frequency {measured}")
    if out["improvement"] < -IMPROVEMENT_TOL:
        _fail(op, f"tightened bound worse by {-out['improvement']:.3e}")
    if meta["decomposition"] in SEMIANALYTIC_DECOMPOSITIONS:
        _against(op, out["g_of_c"], uk.semianalytic_pair_bound(x, min(max(out["c"], 0.0), x * x)), BOUND_TOL)
        if abs(out["old_bound"] - _sew_oracle(x, "sup")) > SEW_TOL:
            _fail(op, "old bound misses the SEW oracle")
    else:
        op["value"] = out["g_of_c"]
    return [op]


def check_multiparty(request, result) -> list[dict]:
    meta = request["meta"]
    op = _op(request, "multiparty", c=0.0, partition=meta["partition"])
    if not _rc_ok(op, result):
        return [op]
    payload = json.loads(result["stdout"].strip().splitlines()[-1])
    if not payload["converged"]:
        _fail(op, "unconverged")
    part = uk.Partition.parse(meta["partition"])
    oracle = uk.closed_form_bound(number(meta["x"]), meta["agents"], part.largest_block).g
    _against(op, payload["bound"], oracle, BOUND_TOL)
    return [op]


class StateBook:
    """Density matrices of the certify workload's states, for the PPT oracle."""

    def __init__(self):
        self._cache = {}
        device = _device(2.0 / 3.0)
        self.c_op = uk.product_operator([device, device], [1, 1])
        self.l_op = uk.product_operator([device, device], [2, 2])

    def rho(self, meta) -> "uk.DensityMatrix":
        key = (meta.get("preset"), meta.get("c"), meta.get("state"))
        if key not in self._cache:
            self._cache[key] = self._build(meta)
        return self._cache[key]

    @staticmethod
    def _build(meta):
        if meta.get("state"):
            payload = json.loads(Path(meta["state"]).read_text())
            if len(payload["entries"]) == int(np.prod(payload["dims"])):
                return uk.pure_density(uk.qcore.state_from_dict(payload))
            op = uk.qcore.operator_from_dict(payload)
            return uk.DensityMatrix(op.dims, op.mat)
        if meta["preset"] == "optimal-entangled":
            return uk.pure_density(uk.optimal_entangled_state(0.0, number(meta["c"])))
        if meta["preset"] == "bell":
            return uk.pure_density(uk.PureState((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)))
        return uk.DensityMatrix((2, 2), np.eye(4) / 4.0)


def check_certify(request, result, book: StateBook) -> list[dict]:
    op = _op(request, "certify")
    if not _rc_ok(op, result):
        return [op]
    out = json.loads(Path(request["outputs"][1]).read_text())
    rho = book.rho(request["meta"])
    est = out["estimate"]
    for name, operator in (("c_hat", book.c_op), ("l_hat", book.l_op)):
        p = uk.expectation(operator, rho)
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / est["shots"])
        if abs(est[name] - p) > ESTIMATE_SIGMAS * sigma + 1e-12:
            _fail(op, f"{name} {est[name]} is {abs(est[name] - p) / max(sigma, 1e-300):.1f} sigma from {p}")
    ppt = uk.is_ppt(rho)
    op.update(value=out["verdict"]["margin"], ppt=ppt, entangled=out["verdict"]["entangled"],
              source=request["meta"].get("source") or request["meta"].get("preset"))
    op["unsound"] = bool(out["verdict"]["entangled"] and ppt)
    if op["unsound"]:
        _fail(op, UNSOUND_VERDICT)
    return [op]


def check_sample(request, result) -> list[dict]:
    meta = request["meta"]
    op = _op(request, "sample")
    if not _rc_ok(op, result):
        return [op]
    x = number(meta["x"])
    pts = np.loadtxt(request["outputs"][0], delimiter=",", skiprows=1, ndmin=2)
    if pts.shape != (meta["n"], 2):
        _fail(op, f"scatter shape {pts.shape}")
    elif (pts[:, 0].min() < -1e-12 or pts[:, 0].max() > x * x + 1e-12
          or pts[:, 1].min() < -1e-12 or pts[:, 1].max() > _sew_oracle(x, "sup") + GS_SLACK):
        _fail(op, "scatter point outside the product-state range")
    return [op]


def check_all(requests, results) -> list[dict]:
    book = StateBook()
    ops = []
    for req, res in zip(requests, results):
        kind = req["kind"]
        if kind == "certify":
            ops += check_certify(req, res, book)
        else:
            ops += CHECKERS[kind](req, res)
    for op in ops:
        op["known"] = known_defect(op)
    return ops


CHECKERS = {
    "curve": check_curve,
    "bound": check_bound,
    "tighten": check_tighten,
    "multiparty": check_multiparty,
    "sample": check_sample,
}


def known_defect(op) -> str | None:
    """Name of the KNOWN_DEFECTS class an op's defect belongs to, if any."""
    if not (op["fail"] or op["unsound"]):
        return None
    if op["kind"] in ("curve", "bound", "tighten") and op["c"] is not None and op["c"] <= LOW_C:
        if op["signed_err"] is not None and not op["fail"]:
            return "low-c"
    if op["kind"] == "certify" and op.get("source") == "h-top" and op["why"] == UNSOUND_VERDICT:
        return "boundary-tail"
    if op["kind"] == "multiparty" and op["signed_err"] is not None and op["signed_err"] < 0:
        if not op["fail"] or op.get("partition") == "1|2|3|4":
            return "partition-c0"
    return None


def summarize(ops) -> dict:
    """Counts and ratios of one pass; `unexpected` ops make a run incorrect."""
    assessed = [op for op in ops if op["unsound"] is not None]
    failed = sum(op["fail"] for op in ops)
    unsound = sum(bool(op["unsound"]) for op in assessed)

    def errs(kinds):
        return [op["signed_err"] for op in ops if op["kind"] in kinds and op["signed_err"] is not None]

    gaps = [op["chord_gap"] for op in ops if "chord_gap" in op]
    return {
        "attempted": len(ops),
        "failed": failed,
        "fail_ratio": failed / len(ops) if ops else 0.0,
        "soundness_assessed": len(assessed),
        "unsound": unsound,
        "unsound_ratio": unsound / len(assessed) if assessed else 0.0,
        "unexpected": [op for op in ops if (op["fail"] or op["unsound"]) and op["known"] is None],
        "known": {k: sum(op["known"] == k for op in ops) for k in KNOWN_DEFECTS},
        "curve_min_signed_err": min(errs(("curve",)), default=0.0),
        "bound_min_signed_err": min(errs(("bound", "tighten")), default=0.0),
        "curve_max_chord_gap": max(gaps, default=0.0),
        "multipartite_min_signed_err": min(errs(("multiparty",)), default=0.0),
    }
