"""CLI robustness battery: every subcommand form on valid, degenerate and
malformed network files answers (exit 0), fails with one ``error:`` line
(exit 2) or gives an infeasibility verdict (exit 3), with no traceback and
no warning."""

import json
import subprocess
import sys

import pytest

from tinq.cli import dispatch

# numpy's overflow reporting decides whether a warning escapes
pytestmark = pytest.mark.oldest_pins

PHYSICAL = {"k": 2, "gains_db": [[0, -20], [-20, 0]], "tx_power_dbm": [30, 30],
            "noise_dbm": -40, "ref_snr_db": 40}

# name: (file contents, the user count the command forms assume); contents
# None names a missing file, and ... the test's directory itself
NETWORKS = {
    "a": ({"k": 3, "alpha": [[2, 0.5, 0.1], [0.2, 1, 0.5], [1, 0.5, 1.5]]}, 3),
    "b": ({"k": 3, "alpha": [[1, 0.3, 0], [0.6, 1, 0.1], [0.8, 0.6, 1]]}, 3),
    "one-user": ({"k": 1, "alpha": [[1.5]]}, 1),
    "zero-diagonal": ({"k": 2, "alpha": [[0, 0.5], [0.5, 1]]}, 2),
    "strong-cross": ({"k": 3, "alpha": [[1, 2, 2], [2, 1, 2], [2, 2, 1]]}, 3),
    "huge": ({"k": 2, "alpha": [[1e308, 0.5], [0.2, 1e308]]}, 2),
    "near-float-max": ({"k": 2, "alpha": [[8.99e306, 0.5], [0.2, 8.99e306]]}, 2),
    "physical": (PHYSICAL, 2),
    "physical-ref-overflow": ({**PHYSICAL, "ref_snr_db": 4000}, 2),
    "physical-tx-overflow": ({**PHYSICAL, "tx_power_dbm": [4000, 20]}, 2),
    "physical-noise-overflow": ({**PHYSICAL, "noise_dbm": 4000}, 2),
    "physical-snr-overflow": ({**PHYSICAL, "gains_db": [[3000, -20], [-20, 0]],
                               "noise_dbm": -100}, 2),
    "k0": ({"k": 0, "alpha": []}, 2),
    "k-mismatch": ({"k": 2, "alpha": [[1, 0.5, 0.1], [0.2, 1, 0.5], [1, 0.5, 1]]}, 2),
    "non-square": ({"k": 2, "alpha": [[1, 0.5, 0.1], [0.2, 1, 0.5]]}, 2),
    "ragged": ({"k": 2, "alpha": [[1, 0.5], [0.2]]}, 2),
    "negative": ({"k": 2, "alpha": [[1, -0.5], [0.2, 1]]}, 2),
    "nan": ({"k": 2, "alpha": [[1, float("nan")], [0.2, 1]]}, 2),
    "infinity": ({"k": 2, "alpha": [[1, float("inf")], [0.2, 1]]}, 2),
    "string": ({"k": 2, "alpha": [["x", 0.5], [0.2, 1]]}, 2),
    "bool": ({"k": 2, "alpha": [[True, 0.5], [0.2, 1]]}, 2),
    "list": ([[1, 0.5], [0.2, 1]], 2),
    "extra-key": ({"k": 2, "alpha": [[1, 0.5], [0.2, 1]], "note": 1}, 2),
    "bad-json": ('{"k": 2, "alpha": [[1, 0.5]', 2),
    "binary": (b"\x80\xff\x00\xfe", 2),
    "missing": (None, 2),
    "directory": (..., 2),
}


def _forms(k: int) -> list:
    """Every subcommand form, for a network of k users."""
    gdof, weights = ",".join(["0.5"] * k), ",".join(["1"] * k)
    return [
        ["region"], ["region", "--form", "cyclic"], ["region", "--subset", "0"],
        ["power", "--gdof", gdof], ["power", "--gdof", gdof, "--subset", "0"],
        ["power", "--gdof", gdof, "--solver", "auction"],
        ["power", "--gdof", gdof, "--solver", "auction", "--snap"],
        ["feasible", "--gdof", gdof], ["check"],
        ["sumgdof", "--weights", weights], ["sumgdof", "--weights", weights, "--subset", "0"],
        ["sumgdof", "--weights", weights, "--method", "exact"],
        ["sumgdof", "--weights", weights, "--method", "gp"],
        ["sumgdof", "--weights", weights, "--method", "dgp"],
        ["schedule", "--scheme", "flashlinq"], ["schedule", "--scheme", "itlinq"],
        ["schedule", "--scheme", "itlinq+"],
        ["num", "--slots", "3"], ["num", "--slots", "3", "--solver", "lp"],
        ["num", "--slots", "3", "--solver", "itlinq+"],
        ["num", "--slots", "2", "--solver", "itlinq+", "--ref-power", "1e200"],
        ["num", "--slots", "2", "--ref-power", "inf"],
    ]


SIMULATE_FORMS = [
    ["simulate", "--links", "3", "--drops", "1"],
    ["simulate", "--links", "3", "--drops", "1", "--power-mode", "gp+assignment"],
    ["simulate", "--links", "3", "--drops", "1", "--power-mode", "lp+assignment"],
    ["simulate", "--synthetic", "--links", "3", "--drops", "1"],
    ["simulate", "--synthetic", "--links", "3", "--drops", "1", "--snr-db", "2000"],
    ["simulate", "--links", "2049", "--drops", "1"],
    ["simulate", "--synthetic", "--links", "2049", "--drops", "1"],
    ["simulate", "--synthetic", "--links", "0", "--drops", "1"],
]


# Every numeric flag of power, sumgdof, schedule, num and simulate, under each
# form that reads it, at the edges of a float; a count takes only 0 and -1,
# so no work is ever asked for. simulate's --scenario is a choice of 1 or 2,
# which argparse enforces.
FLOAT_EDGES = ("0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e-300",
               "1e17")
COUNT_EDGES = ("0", "-1")
NUM = ["num", "--slots", "3"]
FLAG_FORMS = [
    (["power", "--gdof", "0.5,0.5,0.5", "--solver", "auction"], "--epsilon", FLOAT_EDGES),
    (["sumgdof", "--weights", "1,1,1", "--method", "gp"], "--snr-db", FLOAT_EDGES),
    (["sumgdof", "--weights", "1,1,1", "--method", "dgp"], "--iters", COUNT_EDGES),
    *[(["schedule", "--scheme", scheme], flag, FLOAT_EDGES)
      for scheme, flags in (("flashlinq", ("--sir-db", "--snr-db")),
                            ("itlinq", ("--eta", "--m-db", "--snr-db")),
                            ("itlinq+", ("--eta", "--gamma", "--snr-db")))
      for flag in flags],
    *[([*NUM, "--solver", solver], flag, FLOAT_EDGES)
      for solver in ("exact", "lp", "itlinq+")
      for flag in ("--fairness", "--v", "--a-max", "--ref-power")],
    *[(["num", "--solver", solver], "--slots", COUNT_EDGES)
      for solver in ("exact", "lp", "itlinq+")],
    (["simulate", "--synthetic", "--links", "3", "--drops", "1"], "--snr-db", FLOAT_EDGES),
    *[(["simulate", *mode, *rest], flag, COUNT_EDGES)
      for mode in ([], ["--synthetic"])
      for rest, flag in ((["--drops", "1"], "--links"), (["--links", "3"], "--drops"),
                         (["--links", "3", "--drops", "1"], "--seed"))],
    (["simulate", "--links", "3", "--drops", "1"], "--jobs", COUNT_EDGES),
    # two flags whose overflow neither one alone shows
    (["schedule", "--scheme", "itlinq", "--m-db", "3000"], "--snr-db", ("300",)),
    ([*NUM, "--fairness", "0.5"], "--v", ("1e308",)),
]


def _network_file(tmp_path, name) -> str:
    contents, _ = NETWORKS[name]
    if contents is ...:
        return str(tmp_path)
    path = tmp_path / f"{name}.json"
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    elif isinstance(contents, str):
        path.write_text(contents)
    elif contents is not None:
        path.write_text(json.dumps(contents))
    return str(path)


def _assert_one_outcome(argv, code, out, err):
    assert code in (0, 2, 3), argv
    if code == 0:
        assert err == "" and json.loads(out), argv
    elif code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    elif argv[0] == "feasible":
        assert json.loads(out) == {"feasible": False} and err == "", argv
    else:
        doc = json.loads(out)
        assert doc["infeasible"] is True, argv
        assert err == f"infeasible: {doc['error']}\n", argv


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", NETWORKS)
def test_every_subcommand_form_answers_or_fails_in_one_line(capsys, tmp_path, name):
    path = _network_file(tmp_path, name)
    for form in _forms(NETWORKS[name][1]):
        argv = [*form, "--network", path]
        code = dispatch(argv)
        captured = capsys.readouterr()
        _assert_one_outcome(argv, code, captured.out, captured.err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", SIMULATE_FORMS, ids=lambda argv: " ".join(argv[1:]))
def test_simulate_forms_answer_or_fail_in_one_line(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    _assert_one_outcome(argv, code, captured.out, captured.err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("form, flag, values", FLAG_FORMS,
                         ids=[" ".join([*form, flag]) for form, flag, _ in FLAG_FORMS])
def test_every_numeric_flag_at_its_edges_answers_or_fails_in_one_line(
        capsys, tmp_path, form, flag, values):
    path = _network_file(tmp_path, "a")
    for value in values:
        argv = [*form, f"{flag}={value}"]
        if form[0] != "simulate":
            argv += ["--network", path]
        code = dispatch(argv)
        captured = capsys.readouterr()
        _assert_one_outcome(argv, code, captured.out, captured.err)


@pytest.mark.parametrize("name, form, message", [
    ("a", ["num", "--slots", "2", "--solver", "itlinq+", "--ref-power", "1e200"],
     "error: reference power 1e+200 raised to strength 2 overflows a float\n"),
    ("physical-snr-overflow", ["region"],
     "error: bad physical network: nominal SNR of Tx-0 at Rx-0 overflows a float\n"),
    ("near-float-max", ["sumgdof", "--weights", "1,1", "--method", "dgp"],
     "error: decentralized GP at strength 8.99e+306 overflows a float\n"),
], ids=["num-itlinq+-ref-power", "physical-snr", "sumgdof-dgp"])
def test_overflow_prints_one_line_in_a_fresh_interpreter(tmp_path, name, form, message):
    # a fresh interpreter prints each warning location once, which an
    # in-process run may already have used up
    path = _network_file(tmp_path, name)
    proc = subprocess.run([sys.executable, "-m", "tinq.cli", *form, "--network", path],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
