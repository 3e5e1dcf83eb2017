import argparse
import ast
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import uewkit as uk
from uewkit import cli, sampler
from uewkit.cli import main

from conftest import devices, qubit_sum_sweep, qutrit_device_qutrit, random_hermitian


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def curve_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("curve") / "curve.csv"
    code = run("curve", "--x", "2/3", "--grid", 15, "--out", out)
    assert code == 0
    return out


def test_curve_outputs(curve_files):
    assert curve_files.exists()
    lines = curve_files.read_text().splitlines()
    assert lines[0] == "c,g,converged,restarts"
    assert len(lines) == 16
    summary = json.loads(curve_files.with_suffix(".json").read_text())
    assert summary["reliable"] is True
    assert summary["g_s"] == pytest.approx(4 / 9, abs=1e-6)
    assert summary["sew_optimum_c"] == pytest.approx(1 / 36, abs=0.04)
    assert not summary["admissibility"]["commutes"]
    assert len(summary["entangled_max"]) == 15


def test_curve_g_s_from_spectra(tmp_path, monkeypatch):
    # g_s of a product test operator is the product of the effects' top
    # eigenvalues: no multistart is run for it
    def no_multistart(*args, **kwargs):
        raise AssertionError("curve must not run sew_bound")

    monkeypatch.setattr(uk.witness, "sew_bound", no_multistart)
    out = tmp_path / "curve.csv"
    assert run("curve", "--x", "2/3", "--grid", 5, "--out", out) == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    x = 2.0 / 3.0
    # written rounded up like every bound: 4/9 reads 0.444444444445, never ...444
    assert summary["g_s"] == uk.witness.round_up((1 - x / 2) ** 2)
    assert summary["g_s"] >= 4 / 9


@pytest.mark.parametrize("file_x, flag_x, ceiling", [(0.5, "2/3", False), (2 / 3, "1/2", True)])
def test_curve_povm_file_sets_the_ceiling(tmp_path, file_x, flag_x, ceiling):
    # the x = 2/3 entangled ceiling follows the devices in the file, not --x
    povm_file = tmp_path / "povm.json"
    device = uk.build_three_outcome(uk.ThreeOutcomeParams(file_x, 0.0))
    povm_file.write_text(json.dumps(uk.povm_to_dict([device, device])))
    out = tmp_path / "curve.csv"
    argv = ("curve", "--povm", povm_file, "--x", flag_x, "--grid", 5, "--out", out)
    assert run(*argv) == 0
    assert ("entangled_max" in json.loads(out.with_suffix(".json").read_text())) is ceiling


def test_curve_povm_reads_a_rounded_negative_bottom_as_zero(tmp_path, capsys):
    # Pi_2 of the x = 2/3 device has a smallest eigenvalue of -5.5e-17 in
    # floats; read as 0, c = 0 is the bottom row of the range, not an interior
    # c whose log-deficit divides by it
    povms, povm_file, out = qutrit_device_qutrit(), tmp_path / "povm.json", tmp_path / "curve.csv"
    uk.qcore.save_json(povm_file, uk.povm_to_dict(povms))
    argv = ("curve", "--povm", povm_file, "--l-indices", "2,1,1", "--c-indices", "1,2,2", "--grid", 5, "--out", out)
    # the curve is not concave, so it exits 3, with every row written
    assert run(*argv) == 3
    assert "unreliable" in capsys.readouterr().err
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 5 and float(rows[0]["c"]) == 0.0
    at_zero = uk.product_constrained_bound(povms, (2, 1, 1), (1, 2, 2), 0.0)
    assert float(rows[0]["g"]) == uk.witness.round_up(at_zero.value)


def test_curve_minimal_grid(tmp_path):
    out = tmp_path / "tiny.csv"
    assert run("curve", "--x", "2/3", "--grid", 3, "--out", out) == 0
    assert len(out.read_text().splitlines()) == 4


def test_curve_commuting_pair_warns(tmp_path):
    out = tmp_path / "commuting.csv"
    assert run(
        "curve", "--x", "2/3", "--grid", 5,
        "--c-indices", "1,1", "--l-indices", "1,1", "--out", out,
    ) == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["admissibility"]["commutes"] is True
    assert "warning" in summary


def test_curve_tiny_device_does_not_commute(tmp_path):
    # the commutator's norm, 2.5e-21, is read against ||C|| ||L|| ~ 1e-20, not an absolute tolerance
    out = tmp_path / "tiny.csv"
    assert run("curve", "--x", "1e-10", "--grid", 5, "--out", out) == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["admissibility"]["commutes"] is False
    assert "warning" not in summary


def test_certify_round_trip(tmp_path, curve_files):
    counts = tmp_path / "counts.json"
    assert run(
        "simulate", "--preset", "optimal-entangled", "--c", 0, "--x", "2/3",
        "--shots", 200000, "--seed", 7, "--out", counts,
    ) == 0
    verdict_path = tmp_path / "verdict.json"
    assert run(
        "certify", "--counts", counts, "--curve", curve_files, "--sigma", 3,
        "--out", verdict_path,
    ) == 0
    verdict = json.loads(verdict_path.read_text())["verdict"]
    assert verdict["entangled"] is True
    assert verdict["margin"] > 0

    counts_mm = tmp_path / "counts_mm.json"
    assert run(
        "simulate", "--preset", "maximally-mixed", "--x", "2/3",
        "--shots", 200000, "--seed", 7, "--out", counts_mm,
    ) == 0
    assert run(
        "certify", "--counts", counts_mm, "--curve", curve_files, "--out", verdict_path
    ) == 0
    assert json.loads(verdict_path.read_text())["verdict"]["entangled"] is False


def test_certify_reads_a_rewritten_curve(tmp_path, curve_files, capsys):
    # one process, one curve path: each certify reads the rows the file holds then
    counts = tmp_path / "counts.json"
    assert run(
        "simulate", "--preset", "optimal-entangled", "--c", 0, "--x", "2/3",
        "--shots", 200000, "--seed", 7, "--out", counts,
    ) == 0
    curve, verdict_path = tmp_path / "curve.csv", tmp_path / "verdict.json"
    curve.write_bytes(curve_files.read_bytes())
    argv = ("certify", "--counts", counts, "--curve", curve, "--out", verdict_path)
    assert run(*argv) == 0
    assert json.loads(verdict_path.read_text())["verdict"]["entangled"] is True

    curve.write_text("c,g,converged,restarts\n0,0.9,true,0\n0.2,0.9,true,0\n0.444444444444,0.9,true,0\n")
    assert run(*argv) == 0
    payload = json.loads(verdict_path.read_text())
    est = payload["estimate"]
    assert payload["verdict"]["entangled"] is False
    assert payload["verdict"]["margin"] == pytest.approx(est["l_hat"] - 3 * est["sigma_l"] - 0.9, abs=1e-11)

    curve.write_text("c,g,converged,restarts\n0,0.9,true,0\n0.2,0.9,yes,0\n0.444444444444,0.9,true,0\n")
    capsys.readouterr()
    assert run(*argv) == 2
    assert "curve CSV line 3: converged must be true or false, got 'yes'" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: certify does not bind counts to the curve's devices")
def test_item5_certify_refuses_counts_from_another_device(tmp_path):
    # the product of Pi_2's top eigenvectors at x = 1/2 (<L> = 0.5625), measured
    # at x = 1/2, reads entangled with margin 0.115 against the x = 2/3 curve
    from uewkit.qcore import save_json, state_to_dict

    top = np.linalg.eigh(uk.build_three_outcome(uk.ThreeOutcomeParams(0.5, 0.0)).effect(2).op.mat)[1][:, -1]
    state, counts, curve = tmp_path / "state.json", tmp_path / "counts.json", tmp_path / "curve.csv"
    save_json(state, state_to_dict(uk.PureState((2, 2), np.kron(top, top))))
    assert run("simulate", "--state", state, "--x", "1/2", "--shots", "1e5", "--seed", 4, "--out", counts) == 0
    assert run("curve", "--x", "2/3", "--grid", 201, "--out", curve) == 0
    assert run("certify", "--counts", counts, "--curve", curve, "--out", tmp_path / "verdict.json") == 2


def test_import_loads_no_scipy(tmp_path):
    # scipy's optimizers load only for a multistart (`bound --L/--C`, a `tighten`
    # beyond two qubit parties), not with the CLI nor on a device's commands
    commands = [
        ["simulate", "--preset", "optimal-entangled", "--x", "2/3", "--shots", "10000", "--seed", "7", "--out", "counts.json"],
        ["curve", "--x", "2/3", "--grid", "5", "--out", "curve.csv"],
        ["certify", "--counts", "counts.json", "--curve", "curve.csv", "--out", "verdict.json"],
        ["bound", "--x", "2/3", "--c", "0.1", "--out", "bound_c.json"],
        ["bound", "--x", "2/3", "--out", "bound.json"],
        ["tighten", "--counts", "counts.json", "--x", "2/3", "--decomposition", "1:2,2", "--out", "tighten.json"],
        ["tighten", "--counts", "counts.json", "--x", "2/3", "--decomposition", "0.6:2,2;0.4:3,3", "--out", "tighten_sum.json"],
        # three blocks, so `_settle` exchanges deficit and solves for the split
        ["multiparty", "--x", "0.8", "--agents", "4", "--partition", "1|2|3,4", "--c", "0.1", "--out", "bounds.csv"],
        ["sample", "--x", "2/3", "--n", "100", "--seed", "1", "--out", "scatter.csv"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(uk.__file__).resolve().parents[1]))

    def fresh_interpreter(code):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    code = (
        "import json, sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import uewkit\n"
        "after_package = loaded()\n"
        "import uewkit.cli\n"
        "after_cli = loaded()\n"
        f"codes = [uewkit.cli.main(argv) for argv in {commands!r}]\n"
        "print(json.dumps([after_package, after_cli, codes, loaded()]))\n"
    )
    after_package, after_cli, codes, after_commands = fresh_interpreter(code)
    assert after_package == after_cli == []
    assert codes == [0] * len(commands)
    assert after_commands == []
    # again with a finder first on sys.meta_path that makes every import of
    # scipy raise: each command still exits 0, so none needs scipy
    code = (
        "import json, sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import uewkit.cli\n"
        f"codes = [uewkit.cli.main(argv) for argv in {commands!r}]\n"
        "try:\n"
        "    import scipy.optimize\n"
        "    blocked = False\n"
        "except ImportError:\n"
        "    blocked = True\n"
        "print(json.dumps([codes, blocked]))\n"
    )
    codes, blocked = fresh_interpreter(code)
    assert codes == [0] * len(commands)
    assert blocked


def test_only_the_multistart_imports_scipy():
    # every module of the package is parsed, not imported: only `_optimize`,
    # the multistart, may name scipy in an import statement
    package = Path(uk.__file__).resolve().parent
    importers = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.relative_to(package).as_posix())
    assert importers <= {"_optimize.py"}


def test_simulate_state_file(tmp_path, curve_files):
    from uewkit.qcore import save_json, state_to_dict

    state_path = tmp_path / "bell.json"
    vec = np.zeros(4)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    save_json(state_path, state_to_dict(uk.PureState((2, 2), vec)))
    out = tmp_path / "counts.json"
    assert run("simulate", "--state", state_path, "--x", "2/3", "--shots", 1000, "--seed", 1, "--out", out) == 0
    counts = uk.load_counts(out)
    assert counts.total_shots == 1000


def test_simulate_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(
            "simulate", "--preset", "bell", "--x", "2/3", "--shots", 50000,
            "--seed", 13, "--out", out,
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_output(tmp_path):
    out = tmp_path / "scatter.csv"
    assert run("sample", "--x", "2/3", "--n", 500, "--seed", 3, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,l"
    assert len(lines) == 501
    again = tmp_path / "scatter2.csv"
    assert run("sample", "--x", "2/3", "--n", 500, "--seed", 3, "--out", again) == 0
    assert out.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("n", [1, sampler.SAMPLE_BLOCK, sampler.SAMPLE_BLOCK + 1])
def test_sample_csv_bytes(tmp_path, n):
    # the block writer gives the bytes of one f"{v:.12g}" row at a time, for
    # an exact and a partial last block alike
    out = tmp_path / "scatter.csv"
    assert run("sample", "--x", "2/3", "--n", n, "--seed", 5, "--out", out) == 0
    device = uk.build_three_outcome(uk.ThreeOutcomeParams(2 / 3, 0.0))
    pts = uk.scatter([device, device], (2, 2), (1, 1), n=n, seed=5)
    expected = "c,l\n" + "".join(f"{c:.12g},{l:.12g}\n" for c, l in pts.tolist())
    assert out.read_text() == expected


# a qutrit party of two fixed effects with exact entries
QUTRIT = {"effects": [
    {"dims": [3], "entries": [[0.5, 0], [0.1, 0.2], [0, 0], [0.1, -0.2], [0.4, 0], [0, 0.05], [0, 0], [0, -0.05], [0.3, 0]]},
    {"dims": [3], "entries": [[0.5, 0], [-0.1, -0.2], [0, 0], [-0.1, 0.2], [0.6, 0], [0, -0.05], [0, 0], [0, 0.05], [0.7, 0]]},
]}


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--x", "2/3", "--n", "20000", "--seed", "1"],
         "674a97a11af83c2807c1fb103844365a3c96b4f0c905e7a85463f32e3eba82cb"),
        (["--povm", "{povm}", "--l-indices", "1,2,1", "--c-indices", "2,1,2", "--n", "20001", "--seed", "2"],
         "0e37c7af7b28beb5a7daa683095ecf2121113e39b219f5f7e4ad9f7ae734988d"),
    ],
    ids=["default", "qutrit-povm"],
)
def test_sample_csv_digest(tmp_path, argv, digest):
    # the bytes of the whole-array scatter, written before rows were streamed in blocks
    povm_file, out = tmp_path / "povm.json", tmp_path / "scatter.csv"
    povm_file.write_text(json.dumps({"parties": [QUTRIT, {"x": 0.6666666666666666, "theta": 0.0}, QUTRIT]}))
    assert run("sample", *(a.format(povm=povm_file) for a in argv), "--out", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_sample_memory_does_not_grow_with_n(tmp_path):
    # rows are drawn, formatted and written one block at a time
    def peak(n):
        tracemalloc.start()
        try:
            assert run("sample", "--x", "2/3", "--n", n, "--seed", 1, "--out", tmp_path / "s.csv") == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # first-call imports and caches
    small, large = peak(20000), peak(200000)
    assert large <= 4 * 2**20 and large <= 1.5 * small, (small, large)


def test_multiparty_table(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run("multiparty", "--x", "2/3", "--agents", 2, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,M_k,g"
    rows = [line.split(",") for line in lines[1:]]
    assert lines[1] == "2,1,0.333333333334"  # 1/3 rounded up, never ...333
    assert float(rows[0][2]) == pytest.approx(1 / 3, abs=1e-12)
    assert float(rows[1][2]) == pytest.approx(5 / 12, abs=1e-12)


def test_multiparty_partition(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert run(
        "multiparty", "--x", "2/3", "--agents", 3, "--partition", "1|2,3",
        "--seed", 12, "--out", out,
    ) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["bound"] == pytest.approx(5 / 18, abs=2e-3)


@pytest.mark.parametrize("partition", ["1|2", "1|2|3", "1,2,3|4", "1,2,3|4,5,6"])
def test_multiparty_prints_bound_rounded_up(tmp_path, capsys, partition):
    # the block bound at c = 0 is exact to a few ulps; rounding it to
    # nearest at 12 digits printed up to 4.4e-13 below the closed form
    part = uk.Partition.parse(partition)
    out = tmp_path / "bounds.csv"
    assert run("multiparty", "--x", "2/3", "--agents", part.n_agents, "--partition", partition, "--out", out) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["bound"] >= uk.closed_form_bound(2 / 3, part.n_agents, part.largest_block).g


class TestWrittenBoundsReadOnTheSafeSide:
    """Every bound is written through `witness.round_up`: a supremum never
    reads below the value computed, an infimum never above it."""

    @pytest.mark.parametrize("x", ["0.1", "1/2", "2/3", "0.8", "0.95"])
    def test_multiparty_table_rounds_up(self, tmp_path, x):
        # rounded to nearest, 30 of these 100 rows read below g's exact binary value, 23 of them
        # even when read back as floats, e.g. g(2/3; 2, 1) = 1/3 as 0.333333333333
        out = tmp_path / "bounds.csv"
        for n in range(2, 7):
            assert run("multiparty", "--x", x, "--agents", n, "--out", out) == 0
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            assert [(int(r[0]), int(r[1])) for r in rows] == [(n, m) for m in range(1, n + 1)]
            for _, m, g in rows:
                exact = uk.closed_form_bound(float(Fraction(x)), n, int(m)).g
                assert float(g) == uk.witness.round_up(exact) >= exact, (x, n, m)
                assert g == uk.witness.written(float(g))

    def test_entangled_max_rounds_up(self, curve_files):
        ceiling = json.loads(curve_files.with_suffix(".json").read_text())["entangled_max"]
        assert all(e["value"] >= uk.entangled_max(e["c"]) for e in ceiling)
        assert any(e["value"] > uk.entangled_max(e["c"]) for e in ceiling)

    @pytest.mark.parametrize("x", ["0.1", "1/2", "2/3", "0.8", "0.95"])
    def test_bound_sup_up_and_inf_down(self, tmp_path, x):
        pair = devices(float(Fraction(x)), 2)
        out = tmp_path / "bound.json"
        c = 0.3 * float(Fraction(x)) ** 2
        cases = [
            (["--direction", "inf"], uk.product_sew_bound(pair, (2, 2), "inf"), "inf"),
            (["--l-indices", "3,3", "--direction", "inf"], uk.product_sew_bound(pair, (3, 3), "inf"), "inf"),
            ([], uk.product_sew_bound(pair, (2, 2)), "sup"),
            (["--c", repr(c)], uk.product_constrained_bound(pair, (2, 2), (1, 1), c), "sup"),
        ]
        for flags, exact, direction in cases:
            assert run("bound", "--x", x, *flags, "--out", out) == 0, flags
            value = json.loads(out.read_text())["value"]
            assert value == uk.witness.round_up(exact.value, direction), flags
            assert (value >= exact.value) if direction == "sup" else (value <= exact.value), flags


def test_multiparty_range_validation(tmp_path):
    assert run("multiparty", "--x", "2/3", "--agents", 9, "--out", tmp_path / "b.csv") == 2


def test_tighten_command(tmp_path):
    counts = tmp_path / "counts.json"
    assert run(
        "simulate", "--preset", "optimal-entangled", "--c", 0, "--x", "2/3",
        "--shots", 100000, "--seed", 5, "--out", counts,
    ) == 0
    out = tmp_path / "tighten.json"
    assert run(
        "tighten", "--counts", counts, "--x", "2/3", "--restarts", 12, "--out", out
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["improvement"] == pytest.approx(1 / 9, abs=2e-3)
    assert payload["improvement"] >= -1e-9
    # bounds are written rounded up: 4/9 reads 0.444444444445, never ...444
    assert payload["old_bound"] >= 4 / 9


def test_bound_command(tmp_path):
    out = tmp_path / "bound.json"
    assert run("bound", "--x", "2/3", "--restarts", 12, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "sew-sup"
    assert payload["value"] == pytest.approx(4 / 9, abs=1e-6)
    assert run("bound", "--x", "2/3", "--c", "0.1", "--restarts", 12, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == pytest.approx(uk.semianalytic_pair_bound(2 / 3, 0.1), abs=1e-9)


def test_bound_runs_no_multistart(tmp_path, monkeypatch):
    def no_multistart(*args, **kwargs):
        raise AssertionError("a bound on devices must not run the multistart")

    for module in (uk.witness, uk.multipartite):
        monkeypatch.setattr(module, "optimize_product_bound", no_multistart)
    monkeypatch.setattr(uk.witness, "sew_bound", no_multistart)
    monkeypatch.setattr(uk.witness, "constrained_bound", no_multistart)
    pair = [uk.build_three_outcome(uk.ThreeOutcomeParams(2 / 3, 0.0))] * 2
    pi2 = np.linalg.eigvalsh(pair[0].effect(2).op.mat)
    out = tmp_path / "bound.json"

    def at(c):
        return uk.product_constrained_bound(pair, (2, 2), (1, 1), c)

    cases = [
        (["--direction", "sup"], pi2[-1] ** 2, uk.product_sew_bound(pair, (2, 2), "sup")),
        (["--direction", "inf"], pi2[0] ** 2, uk.product_sew_bound(pair, (2, 2), "inf")),
        (["--c", "0"], 1 / 3, at(0.0)),
        (["--c", "0.1"], uk.semianalytic_pair_bound(2 / 3, 0.1), at(0.1)),
        (["--c", "4/9"], 1 / 36, at(4 / 9)),
    ]
    for flags, oracle, exact in cases:
        assert run("bound", "--x", "2/3", *flags, "--restarts", 2, "--out", out) == 0, flags
        payload = json.loads(out.read_text())
        assert payload["converged"] and payload["restarts_used"] == 0
        assert payload["value"] == pytest.approx(oracle, abs=1e-9), flags
        # written rounded away from the states it bounds
        if "inf" in flags:
            assert payload["value"] <= exact.value
        else:
            assert payload["value"] >= exact.value, flags


def test_one_term_tighten_runs_no_multistart(tmp_path, monkeypatch):
    # one term with beta > 0 is a product of effects: tighten writes what
    # `bound` and `bound --c` write, while other decompositions still reach
    # the multistart
    def no_multistart(*args, **kwargs):
        raise AssertionError("a one-term tighten must not run the multistart")

    for module in (uk.witness, uk.multipartite):
        monkeypatch.setattr(module, "optimize_product_bound", no_multistart)
    monkeypatch.setattr(uk.witness, "sew_bound", no_multistart)
    monkeypatch.setattr(uk.witness, "constrained_bound", no_multistart)
    counts, out, bound = tmp_path / "counts.json", tmp_path / "tighten.json", tmp_path / "bound.json"

    def written(*argv):
        assert run("bound", *argv, "--out", bound) == 0, argv
        return f"{json.loads(bound.read_text())['value']:.12g}"

    # (count at (1,1), shots, c as written for `bound --c`): c = 0, interior and x^2
    for x, top in (("1/2", (1, 4, "1/4")), ("2/3", (4, 9, "4/9")), ("0.8", (16, 25, "0.64"))):
        for hits, shots, c in ((0, 10, "0"), (1, 10, "0.1"), top):
            uk.save_counts(counts, uk.CountsTable((3, 3), {(1, 1): hits, (2, 2): shots - hits}))
            for pair in ("2,2", "2,3"):
                argv = ("tighten", "--counts", counts, "--x", x, "--decomposition", f"1:{pair}", "--out", out)
                assert run(*argv) == 0, (x, c, pair)
                payload = json.loads(out.read_text())
                assert f"{payload['c']:.12g}" == f"{float(Fraction(c)):.12g}" and payload["converged"]
                assert f"{payload['old_bound']:.12g}" == written("--x", x, "--l-indices", pair), (x, pair)
                assert f"{payload['g_of_c']:.12g}" == written("--x", x, "--l-indices", pair, "--c", c), (x, c, pair)
    # a sum or a beta <= 0 term on two qubits is solved on party 1's Bloch sphere, no multistart either
    for decomposition in ("-1:2,2", "0.6:2,2;0.4:3,3"):
        argv = ("tighten", "--counts", counts, f"--decomposition={decomposition}", "--restarts", 2, "--seed", 3)
        assert run(*argv, "--out", out) == 0, decomposition
        assert json.loads(out.read_text())["converged"]
    # with a party that is not a qubit a sum still reaches the multistart, with --restarts and --seed
    reached, povm_file = [], tmp_path / "povm.json"
    qutrit = uk.Povm(tuple(uk.Effect(uk.HermitianOperator((3,), np.diag(d))) for d in ([0, 0.3, 0.9], [0.6, 0.5, 0], [0.4, 0.2, 0.1])))
    uk.qcore.save_json(povm_file, uk.povm_to_dict([qutrit, uk.build_three_outcome(uk.ThreeOutcomeParams(0.5, 0.0))]))
    monkeypatch.setattr(uk.witness, "sew_bound", lambda l_op, settings: reached.append(settings) or no_multistart())
    argv = ("tighten", "--counts", counts, "--povm", povm_file, "--decomposition=0.6:2,2;0.4:3,3", "--restarts", 2, "--seed", 3)
    with pytest.raises(AssertionError, match="must not run the multistart"):
        run(*argv, "--out", out)
    assert reached == [uk.OptimizerSettings(restarts=2, seed=3)]


@pytest.mark.parametrize("x", ["1/2", "2/3", "0.8"])
def test_bound_c_matches_curve_row(tmp_path, x):
    # `bound --c` evaluates the same per-party blocks as the curve row at
    # that c, and both write g rounded up at 12 digits
    curve = tmp_path / "curve.csv"
    # the curve at x = 0.8 is not concave, so `curve` exits 3, but writes its rows
    assert run("curve", "--x", x, "--grid", 11, "--out", curve) == (3 if x == "0.8" else 0)
    rows = [row.split(",") for row in curve.read_text().splitlines()[1:]]
    out = tmp_path / "bound.json"
    for c, g, *_ in (rows[0], rows[5], rows[-1]):
        assert run("bound", "--x", x, "--c", c, "--out", out) == 0
        assert f"{json.loads(out.read_text())['value']:.12g}" == g, c
    # the summary's g_s is the unconstrained `bound`, rounded up alike
    assert run("bound", "--x", x, "--out", out) == 0
    assert json.loads(curve.with_suffix(".json").read_text())["g_s"] == json.loads(out.read_text())["value"]


def test_tiny_device_keeps_its_constraint_range(tmp_path, capsys):
    # x = 1e-10 puts the top of each <Pi_1> at 1e-10 and of C at 1e-20: both
    # stay ranges, so c = 0 and the top read their own states, not the free one
    curve, out = tmp_path / "curve.csv", tmp_path / "bound.json"
    assert run("curve", "--x", "1e-10", "--grid", 5, "--out", curve) == 0
    c, g, *_ = curve.read_text().splitlines()[1].split(",")
    assert run("bound", "--x", "1e-10", "--c", c, "--out", out) == 0
    assert f"{json.loads(out.read_text())['value']:.12g}" == g and float(g) <= 0.5
    assert run("bound", "--x", "1e-10", "--c", "1e-20", "--out", out) == 0
    top = json.loads(out.read_text())
    assert top["value"] == 0.250000010876 and top["feasibility_residual"] <= 1e-30
    # the range slack is relative to that top: c = 5e-10 lies 5e10 times beyond it
    out.unlink()
    assert run("bound", "--x", "1e-10", "--c", "5e-10", "--out", out) == 2
    assert "constraint value 5e-10 outside the spectrum [0, 1e-20] of C" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x", ["1/2", "2/3", "0.8"])
def test_bound_inf_of_singular_effects_is_zero(tmp_path, x):
    # Pi_2 is singular, and a rounding-negative bottom eigenvalue is read as 0
    pair = [uk.build_three_outcome(uk.ThreeOutcomeParams(float(Fraction(x)), 0.0))] * 2
    assert uk.attainable_constraint_range(pair, (2, 2))[0] == 0.0
    out = tmp_path / "bound.json"
    assert run("bound", "--x", x, "--direction", "inf", "--out", out) == 0
    assert json.loads(out.read_text())["value"] == 0.0


@pytest.mark.parametrize("theta", ["0", "0.3", "1.7"])
@pytest.mark.parametrize("x, sup", [("1/2", 0.5625), ("2/3", 0.444444444445), ("0.8", 0.36)])
def test_bound_sew_is_free_of_theta(tmp_path, x, sup, theta):
    # theta rotates Pi_2's eigenvectors, not its spectrum: the infimum is exactly 0 at every theta, not the
    # product of two bottom eigenvalues a rounding above 0 (1.7e-33 at x = 2/3, theta = 0.3)
    out = tmp_path / "bound.json"
    for direction, value in (("inf", 0.0), ("sup", sup)):
        assert run("bound", "--x", x, "--theta", theta, "--direction", direction, "--out", out) == 0
        assert json.loads(out.read_text())["value"] == value, direction


@pytest.mark.parametrize("argv", [["--direction", "inf"], ["--c", "4/9"]])
def test_bound_maximizer_is_exact_on_the_bloch_axes(tmp_path, argv):
    # the inf maximizer's phase is -1 and the top state is |VV>: no rounding residue is written for either
    out = tmp_path / "bound.json"
    assert run("bound", "--x", "2/3", *argv, "--out", out) == 0
    entries = [part for f in json.loads(out.read_text())["maximizer"] for amp in f["entries"] for part in amp]
    assert all(abs(v) >= 1e-3 or str(v) == "0.0" for v in entries), entries


def test_bound_inf_takes_no_c(tmp_path, capsys):
    assert run("bound", "--x", "2/3", "--c", "0.1", "--direction", "inf", "--out", tmp_path / "b.json") == 2
    assert "--direction inf takes no --c" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def test_bound_operator_files(tmp_path, pair23):
    from uewkit.qcore import operator_to_dict, save_json

    l_path, c_path = tmp_path / "L.json", tmp_path / "C.json"
    save_json(l_path, operator_to_dict(pair23[0]))
    save_json(c_path, operator_to_dict(pair23[1]))
    out = tmp_path / "bound.json"
    assert run(
        "bound", "--L", l_path, "--C", c_path, "--c", "0.2", "--restarts", 12, "--out", out
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == pytest.approx(uk.semianalytic_pair_bound(2 / 3, 0.2), abs=1e-4)

    # maximizer factors keep the operators' party dims, also for a qudit party
    rng = np.random.default_rng(3)
    l_mat = np.kron(random_hermitian(4, rng), random_hermitian(2, rng))
    save_json(l_path, operator_to_dict(uk.HermitianOperator((4, 2), l_mat)))
    save_json(c_path, operator_to_dict(uk.identity((4, 2))))
    assert run("bound", "--L", l_path, "--C", c_path, "--restarts", 4, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert [f["dims"] for f in payload["maximizer"]] == [[4], [2]]


class TestErrorExits:
    def test_missing_counts_file(self, curve_files, tmp_path):
        assert run("certify", "--counts", tmp_path / "nope.json", "--curve", curve_files) == 2

    def test_malformed_counts(self, curve_files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run("certify", "--counts", bad, "--curve", curve_files) == 2

    def test_empty_counts(self, curve_files, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(
            json.dumps({"shots": 0, "parties": 2, "outcomes_per_party": [3, 3], "counts": {}})
        )
        assert run("certify", "--counts", empty, "--curve", curve_files) == 2

    def test_unreliable_curve_exits_3(self, tmp_path):
        curve = tmp_path / "unreliable.csv"
        curve.write_text(
            "c,g,converged,restarts\n0,0.33,false,8\n0.2,0.4,true,8\n0.44,0.03,true,8\n"
        )
        counts = tmp_path / "counts.json"
        counts.write_text(
            json.dumps({"shots": 10, "parties": 2, "outcomes_per_party": [3, 3], "counts": {"2,2": 10}})
        )
        assert run("certify", "--counts", counts, "--curve", curve) == 3
        # reliability is read from the rows, never from the summary JSON
        curve.with_suffix(".json").write_text(json.dumps({"fingerprint": "", "reliable": True}))
        assert run("certify", "--counts", counts, "--curve", curve) == 3

    def test_bad_state_preset_combo(self, tmp_path):
        assert run("simulate", "--x", "2/3", "--out", tmp_path / "c.json") == 2

    def test_bad_x(self, tmp_path):
        assert run("curve", "--x", "1.5", "--grid", 3, "--out", tmp_path / "c.csv") == 2

    def test_zero_restarts(self, tmp_path, capsys):
        assert run("bound", "--x", "2/3", "--restarts", 0, "--out", tmp_path / "b.json") == 2
        assert "restarts must be >= 1, got 0" in capsys.readouterr().err

    def test_unattainable_bound_c(self, tmp_path, capsys):
        assert run("bound", "--x", "2/3", "--c", "0.6", "--out", tmp_path / "b.json") == 2
        err = capsys.readouterr().err
        assert "constraint value 0.6 outside the spectrum [0, 0.444444444444] of C" in err

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_bad_sample_size(self, tmp_path, capsys, n):
        assert run("sample", "--n", n, "--out", tmp_path / "s.csv") == 2
        assert f"n must be >= 1, got {n}" in capsys.readouterr().err

    def test_state_party_dims_must_match_devices(self, tmp_path, capsys):
        # |2> x |H> on dims (3, 2), measured by (qubit device, qutrit POVM)
        state = tmp_path / "state.json"
        vec = np.zeros(6)
        vec[4] = 1.0
        uk.qcore.save_json(state, uk.qcore.state_to_dict(uk.PureState((3, 2), vec)))
        qubit = uk.build_three_outcome(uk.ThreeOutcomeParams(2 / 3, 0.0))
        qutrit = uk.Povm(tuple(uk.Effect(uk.HermitianOperator((3,), np.diag(row))) for row in np.eye(3)))
        povm_file = tmp_path / "povm.json"
        uk.qcore.save_json(povm_file, uk.povm_to_dict([qubit, qutrit]))
        out = tmp_path / "c.json"
        assert run("simulate", "--state", state, "--povm", povm_file, "--out", out) == 2
        assert "POVM dims (2, 3) do not match the state's dims (3, 2)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [("simulate", "--shots", "inf"), ("sample", "--n", "inf"), ("simulate", "--shots", "1e30"),
         ("simulate", "--shots", "1.5")],
    )
    def test_bad_count_flag(self, tmp_path, capsys, command, flag, value):
        argv = [command, flag, value, "--out", tmp_path / "o"]
        if command == "simulate":
            argv += ["--preset", "bell"]
        with pytest.raises(SystemExit) as exit_info:
            run(*argv)
        assert exit_info.value.code == 2
        assert f"argument {flag}: not a whole number in int64 range: '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_count_flag_exponent_form(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("sample", "--n", "1e1", "--seed", 2, "--out", out) == 0
        assert len(out.read_text().splitlines()) == 11

    def test_negative_grid(self, tmp_path, capsys):
        assert run("curve", "--grid", -1, "--out", tmp_path / "c.csv") == 2
        err = capsys.readouterr().err
        assert "need at least 3 grid points" in err
        assert "Number of samples" not in err

    def test_multiparty_bad_c_writes_nothing(self, tmp_path):
        out = tmp_path / "bounds.csv"
        argv = ("multiparty", "--agents", 3, "--partition", "1|2|3", "--c", "-0.5", "--out", out)
        assert run(*argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("c", ["0.1", "-5"])
    def test_multiparty_c_needs_partition(self, tmp_path, capsys, c):
        # --c sets the partition bound's constraint; without --partition it was ignored, even when invalid
        out = tmp_path / "bounds.csv"
        assert run("multiparty", "--x", "2/3", "--agents", 3, "--c", c, "--out", out) == 2
        assert "error: --c is the partition bound's constraint value: give it with --partition" in capsys.readouterr().err
        assert not out.exists()
        # with --partition and no --c the bound is taken at c = 0, as with --c 0
        lines = []
        for flags in ([], ["--c", "0"]):
            assert run("multiparty", "--agents", 3, "--partition", "1|2,3", *flags, "--out", out) == 0
            lines.append(capsys.readouterr().out.splitlines()[-1])
        assert lines[0] == lines[1] and json.loads(lines[0])["c"] == 0.0

    @pytest.mark.parametrize("partition", ["1|x", "1|2.5"])
    def test_multiparty_rejects_non_integer_agent_labels(self, tmp_path, capsys, partition):
        out = tmp_path / "bounds.csv"
        assert run("multiparty", "--agents", 2, "--partition", partition, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"agent labels must be positive integers, got partition '{partition}'" in err
        assert "invalid literal" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.2,0.4,true", "curve CSV line 3 does not hold exactly the fields c,g,converged,restarts"),
            ("0.2,0.4,true,8,1", "curve CSV line 3 does not hold exactly the fields c,g,converged,restarts"),
            ("0.2,0.4,yes,8", "curve CSV line 3: converged must be true or false, got 'yes'"),
            ("0.2,0.4,true,8.5", "curve CSV line 3: c and g must be numbers and restarts an integer"),
            ("0.2,nan,true,8", "curve point 2 is not finite: c=0.2, g=nan"),
            ("inf,0.4,true,8", "curve point 2 is not finite: c=inf, g=0.4"),
        ],
    )
    def test_malformed_curve_row(self, tmp_path, capsys, row, message):
        curve = tmp_path / "curve.csv"
        curve.write_text(f"c,g,converged,restarts\n0,0.33,true,8\n{row}\n0.44,0.03,true,8\n")
        counts = tmp_path / "counts.json"
        counts.write_text(
            json.dumps({"shots": 10, "parties": 2, "outcomes_per_party": [3, 3], "counts": {"2,2": 10}})
        )
        out = tmp_path / "verdict.json"
        assert run("certify", "--counts", counts, "--curve", curve, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_non_finite_sigma(self, curve_files, tmp_path, capsys, sigma):
        counts = tmp_path / "counts.json"
        counts.write_text(
            json.dumps({"shots": 10, "parties": 2, "outcomes_per_party": [3, 3], "counts": {"2,2": 10}})
        )
        out = tmp_path / "verdict.json"
        assert run("certify", "--counts", counts, "--curve", curve_files, "--sigma", sigma, "--out", out) == 2
        assert f"sigma level k must be finite and >= 0, got {float(sigma)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(("--c", "nan"), "c=nan outside"), (("--theta", "nan"), "theta must be finite, got nan"),
         (("--theta", "inf"), "theta must be finite, got inf")],
    )
    def test_non_finite_preset_parameters(self, tmp_path, capsys, flags, message):
        out = tmp_path / "counts.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert run("simulate", "--preset", "optimal-entangled", *flags, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_curve_summary_not_an_object(self, curve_files, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_bytes(curve_files.read_bytes())
        curve.with_suffix(".json").write_text("[]")
        counts = tmp_path / "counts.json"
        counts.write_text(
            json.dumps({"shots": 10, "parties": 2, "outcomes_per_party": [3, 3], "counts": {"2,2": 10}})
        )
        out = tmp_path / "verdict.json"
        assert run("certify", "--counts", counts, "--curve", curve, "--out", out) == 2
        assert f"curve summary {curve.with_suffix('.json')} is not a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("role", ["counts", "summary", "povm", "state"])
    def test_malformed_json_names_the_file(self, curve_files, tmp_path, capsys, role):
        bad = tmp_path / f"{role}.json"
        bad.write_text("not json")
        counts = tmp_path / "good_counts.json"
        counts.write_text(
            json.dumps({"shots": 10, "parties": 2, "outcomes_per_party": [3, 3], "counts": {"2,2": 10}})
        )
        curve = tmp_path / "summary.csv"
        curve.write_bytes(curve_files.read_bytes())
        argv = {
            "counts": ("certify", "--counts", bad, "--curve", curve_files),
            "summary": ("certify", "--counts", counts, "--curve", curve),
            "povm": ("bound", "--povm", bad),
            "state": ("simulate", "--state", bad),
        }[role]
        out = tmp_path / "out.json"
        assert run(*argv, "--out", out) == 2
        assert f"{bad} is not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--l-indices", "2", "--c-indices", "1"],
            ["bound", "--l-indices", "2", "--c-indices", "1", "--c", "0.2"],
            ["curve", "--l-indices", "2", "--c-indices", "1", "--grid", "5"],
            ["tighten", "--decomposition", "1:2", "--constraint", "1"],
        ],
    )
    def test_one_party_device_bound_refused(self, tmp_path, capsys, argv):
        # one party has no entangled states to tell apart: the device bounds
        # refuse it like the matrix path's sew_bound
        povm_file = tmp_path / "one.json"
        povm_file.write_text(json.dumps({"parties": [{"x": 2 / 3}]}))
        counts = tmp_path / "counts.json"
        # simulate and sample still take one party
        assert run("simulate", "--preset", "maximally-mixed", "--parties", 1, "--povm", povm_file,
                   "--shots", 1000, "--out", counts) == 0
        assert run("sample", "--povm", povm_file, "--l-indices", 2, "--c-indices", 1, "--n", 10,
                   "--out", tmp_path / "s.csv") == 0
        capsys.readouterr()
        out = tmp_path / "out"
        if argv[0] == "tighten":
            argv = argv + ["--counts", counts]
        assert run(*argv, "--povm", povm_file, "--out", out) == 2
        assert "standard witnessing needs at least 2 parties" in capsys.readouterr().err
        assert not out.exists()

    def test_multiparty_rejects_povm_file(self, tmp_path, capsys):
        # the bounds are formulas in --x/--theta, so a device file is refused
        povm_file = tmp_path / "povm.json"
        device = uk.build_three_outcome(uk.ThreeOutcomeParams(0.5, 0.0))
        povm_file.write_text(json.dumps(uk.povm_to_dict([device] * 3)))
        out = tmp_path / "bounds.csv"
        with pytest.raises(SystemExit) as exit_info:
            run("multiparty", "--agents", 3, "--partition", "1|2|3", "--povm", povm_file, "--out", out)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --povm" in capsys.readouterr().err
        assert not out.exists()


def test_main_builds_one_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run("multiparty", "--agents", 2, "--out", tmp_path / "a.csv") == 0
    first = len(built)
    assert run("multiparty", "--agents", 2, "--out", tmp_path / "b.csv") == 0
    assert len(built) == first


def test_tighten_unconverged_exits_3(tmp_path, monkeypatch):
    counts = tmp_path / "counts.json"
    assert run(
        "simulate", "--preset", "optimal-entangled", "--c", 0, "--shots", 1000, "--seed", 5, "--out", counts
    ) == 0
    out = tmp_path / "tighten.json"
    # the default one-term decomposition takes the block engine on the party blocks tighten builds, a sum the
    # Bloch-sphere search
    engines = (("1:2,2", uk.witness, "_block_bound"), ("0.6:2,2;0.4:3,3", uk.multipartite._QubitPair, "bound"))
    for decomposition, owner, engine in engines:
        argv = ("tighten", "--counts", counts, "--decomposition", decomposition, "--restarts", 4, "--out", out)
        assert run(*argv) == 0
        assert json.loads(out.read_text())["converged"] is True

        def unconverged(*args, bound=getattr(owner, engine), **kwargs):
            return dataclasses.replace(bound(*args, **kwargs), converged=False)

        with monkeypatch.context() as patched:
            patched.setattr(owner, engine, unconverged)
            assert run(*argv) == 3, decomposition
        assert json.loads(out.read_text())["converged"] is False


def test_tighten_sum_near_party_1s_pole(tmp_path):
    # trial 15 of the seeded sweep (`conftest.qubit_sum_sweep`): the unconstrained maximum lies near a
    # pole of party 1's sphere; the search converges, and old_bound (which does not depend on c) is the
    # 128-restart multistart's 0.7758494850020451 rounded up at 12 digits
    povms = list(qubit_sum_sweep(16))[15][0]
    povm_file, counts, out = tmp_path / "povm.json", tmp_path / "counts.json", tmp_path / "tighten.json"
    uk.qcore.save_json(povm_file, uk.povm_to_dict(povms))
    counts.write_text(json.dumps({"shots": 10000, "parties": 2, "outcomes_per_party": [3, 3],
                                  "counts": {"1,1": 8000, "3,1": 2000}}))
    decomposition = "2.2273860809131754:3,2;-0.05251938229307366:2,3"
    argv = ("tighten", "--counts", counts, "--povm", povm_file, "--decomposition", decomposition, "--constraint", "3,1")
    assert run(*argv, "--out", out) == 0
    result = json.loads(out.read_text())
    assert result["converged"] is True and result["old_bound"] == 0.775849485003


class TestMalformedInput:
    """Bad files and flags exit 2 with uewkit's own message, never a traceback."""

    COUNTS = {"shots": 3, "parties": 2, "outcomes_per_party": [3, 3], "counts": {"1,1": 1, "2,2": 2}}

    @staticmethod
    def write(path, payload):
        path.write_text(json.dumps(payload))
        return path

    def test_povm_party_not_an_object(self, tmp_path, capsys):
        povm_file = self.write(tmp_path / "povm.json", {"parties": [3]})
        assert run("bound", "--povm", povm_file, "--out", tmp_path / "b.json") == 2
        assert "each party is a JSON object, got 3" in capsys.readouterr().err

    def test_povm_x_not_a_number(self, tmp_path, capsys):
        povm_file = self.write(tmp_path / "povm.json", {"parties": [{"x": "a"}, {"x": 0.5}]})
        assert run("bound", "--povm", povm_file, "--out", tmp_path / "b.json") == 2
        err = capsys.readouterr().err
        assert "x and theta must be numbers" in err
        assert "could not convert" not in err

    def test_counts_not_a_mapping(self, tmp_path, capsys):
        counts = self.write(tmp_path / "counts.json", dict(self.COUNTS, counts=[1]))
        assert run("certify", "--counts", counts, "--curve", tmp_path / "curve.csv") == 2
        assert 'needs an "outcomes_per_party" list and a "counts" object' in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cells, message",
        [({"1,1": "a"}, "count of '1,1' must be an integer"), ({"a,1": 3}, "counts key 'a,1' is not")],
    )
    def test_counts_non_integer(self, tmp_path, capsys, cells, message):
        counts = self.write(tmp_path / "counts.json", dict(self.COUNTS, counts=cells))
        assert run("certify", "--counts", counts, "--curve", tmp_path / "curve.csv") == 2
        err = capsys.readouterr().err
        assert message in err
        assert "invalid literal" not in err

    def test_state_file_holds_a_list(self, tmp_path, capsys):
        state = self.write(tmp_path / "state.json", [1, 0])
        assert run("simulate", "--state", state, "--out", tmp_path / "c.json") == 2
        assert "holds a JSON object" in capsys.readouterr().err

    def test_operator_without_dims(self, tmp_path, capsys):
        op = self.write(tmp_path / "op.json", {"entries": [[1, 0]] * 16})
        assert run("bound", "--L", op, "--C", op, "--out", tmp_path / "b.json") == 2
        assert "missing field 'dims'" in capsys.readouterr().err

    def test_operator_ragged_entries(self, tmp_path, capsys):
        op = self.write(tmp_path / "op.json", {"dims": [2, 2], "entries": [[1, 0]] * 15 + [[1]]})
        assert run("bound", "--L", op, "--C", op, "--out", tmp_path / "b.json") == 2
        err = capsys.readouterr().err
        assert "entries must be a list of [re, im] number pairs" in err
        assert "inhomogeneous" not in err

    @pytest.mark.parametrize("term", ["x:2,2", "1:2,a", "1"])
    def test_bad_decomposition_term(self, tmp_path, capsys, term):
        counts = self.write(tmp_path / "counts.json", self.COUNTS)
        with pytest.raises(SystemExit) as exit_info:
            run("tighten", "--counts", counts, "--decomposition", term, "--out", tmp_path / "t.json")
        assert exit_info.value.code == 2
        assert "argument --decomposition" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "parties, message", [(-1, "parties must be >= 1, got -1"), (13, "exceeds cap"), (40, "exceeds cap")]
    )
    def test_bad_parties(self, tmp_path, capsys, parties, message):
        argv = ("simulate", "--preset", "maximally-mixed", "--parties", parties, "--out", tmp_path / "c.json")
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "array is too big" not in err


def test_curve_determinism(tmp_path):
    outs = []
    for name in ("t1.csv", "t1b.csv"):
        out = tmp_path / name
        assert run("curve", "--x", "2/3", "--grid", 9, "--out", out) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].with_suffix(".json").read_bytes() == outs[1].with_suffix(".json").read_bytes()


def test_curve_seed_has_no_effect(tmp_path):
    # a product curve draws no random starts; --seed is accepted for old callers
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"seed{seed}.csv"
        assert run("curve", "--x", "1/2", "--theta", "0.3", "--grid", 11, "--seed", seed, "--out", out) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].with_suffix(".json").read_bytes() == outs[1].with_suffix(".json").read_bytes()
    assert "settings" not in json.loads(outs[0].with_suffix(".json").read_text())


def test_curve_takes_no_restarts(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        run("curve", "--x", "2/3", "--grid", 5, "--restarts", 8, "--out", tmp_path / "c.csv")
    assert exit_info.value.code == 2


def test_curve_runs_no_multistart(tmp_path, monkeypatch):
    def no_multistart(*args, **kwargs):
        raise AssertionError("a product curve must not run the multistart")

    for module in (uk.witness, uk.multipartite):
        monkeypatch.setattr(module, "optimize_product_bound", no_multistart)
    monkeypatch.setattr(uk.witness, "constrained_bound", no_multistart)
    out = tmp_path / "curve.csv"
    assert run("curve", "--x", "2/3", "--grid", 11, "--out", out) == 0
    rows = out.read_text().splitlines()[1:]
    assert all(row.endswith(",true,0") for row in rows)


@pytest.mark.parametrize("path", ["cli", "library"])
@pytest.mark.parametrize("device", [("2/3", "0"), ("1/2", "0.3")])
def test_curve_rows_bound_g_at_stated_c(tmp_path, device, path):
    # each row must hold at the c it states, not at the unrounded grid value:
    # g is infinitely steep at the ends of the range
    x, theta = device
    out = tmp_path / "curve.csv"
    if path == "cli":
        assert run("curve", "--x", x, "--theta", theta, "--grid", 21, "--out", out) == 0
    else:
        dev = uk.build_three_outcome(uk.ThreeOutcomeParams(float(Fraction(x)), float(theta)))
        lo, hi = uk.attainable_constraint_range([dev, dev], (1, 1))
        curve = uk.separability_curve([dev, dev], (2, 2), (1, 1), np.linspace(lo, hi, 21))
        assert curve.reliable
        uk.curve_to_csv(curve, out)
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 21
    # the grid spans the exact product-state range [0, x^2]
    x_sq = float(Fraction(x)) ** 2
    assert rows[0].split(",")[0] == "0"
    assert rows[-1].split(",")[0] == f"{x_sq:.12g}"
    for row in rows:
        c, g = (float(v) for v in row.split(",")[:2])
        oracle = uk.semianalytic_pair_bound(float(Fraction(x)), c)
        assert g >= oracle - 1e-12, f"c={c}"
