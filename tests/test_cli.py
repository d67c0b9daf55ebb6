import errno
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from conftest import REPO, cli_env

SCHEMA_DIR = REPO / "docs" / "schemas"
DATA = Path(__file__).resolve().parent / "data"


def run_cli(*args, env_extra=None, check_json=None):
    proc = subprocess.run([sys.executable, "-m", "extrec.cli", *args], capture_output=True,
                          text=True, env=cli_env(**(env_extra or {})), cwd=REPO)
    payload = None
    if check_json is not None and proc.returncode == 0:
        payload = json.loads(proc.stdout)
        schema = json.loads((SCHEMA_DIR / f"{check_json}.schema.json").read_text())
        Draft202012Validator.check_schema(schema)
        Draft202012Validator(schema).validate(payload)
    return proc, payload


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency: the runtime needs numpy alone
    proc = subprocess.run([sys.executable, "-c", "import sys, extrec.cli; "
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                          capture_output=True, text=True, env=cli_env(), cwd=REPO, check=True)
    assert proc.stdout.strip() == "[]"


class TestMeasureCommand:
    def test_crj_exponential(self):
        proc, payload = run_cli("measure", "--dist", "exponential:rate=1",
                                "--measure", "crj", "--output", "json", check_json="measure")
        assert proc.returncode == 0
        assert abs(payload["value"] + 0.25) < 1e-6
        assert payload["quad_status"] == "converged"

    def test_cpj_exponential_divergent(self):
        proc, payload = run_cli("measure", "--dist", "exponential:rate=1",
                                "--measure", "cpj", "--output", "json", check_json="measure")
        assert proc.returncode == 0
        assert payload["value"] is None
        assert payload["display"] == "divergent(-)"
        assert payload["quad_status"] == "diverged_negative"

    def test_invalid_parameter_exits_2(self):
        proc, _ = run_cli("measure", "--dist", "power:theta=-3", "--measure", "crj")
        assert proc.returncode == 2
        assert "theta" in proc.stderr

    def test_unknown_distribution_exits_2(self):
        proc, _ = run_cli("measure", "--dist", "gamma", "--measure", "crj")
        assert proc.returncode == 2

    def test_usage_error_exits_2(self):
        proc, _ = run_cli("measure", "--dist", "uniform", "--measure", "nope")
        assert proc.returncode == 2

    def test_no_convergence_exits_3(self):
        # a tol below the quadrature's own error estimates: the ladder cannot settle
        proc, _ = run_cli("measure", "--dist", "power:theta=2", "--measure", "crj",
                          "--tol", "1e-16")
        assert proc.returncode == 3
        assert "did not settle" in proc.stderr or "quadrature" in proc.stderr

    def test_record_and_delta_measures(self):
        for measure, extra in (("record_crj_upper", ["--n", "2", "--k", "1"]),
                               ("kij", ["--n", "2", "--k", "1", "--side", "lower"]),
                               ("delta1", []),
                               ("delta3", ["--m", "3"])):
            proc, payload = run_cli("measure", "--dist", "power:theta=2", "--measure", measure,
                                    *extra, "--output", "json", check_json="measure")
            assert proc.returncode == 0, (measure, proc.stderr)

    def test_measure_choices_are_the_table_ids(self):
        import argparse

        from extrec import cli, measures

        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        choices = next(a.choices for a in sub.choices["measure"]._actions if a.dest == "measure")
        table_ids = {row.id for row in measures.KERNELS.values() if row.id is not None}
        assert list(choices) == sorted(table_ids)
        assert table_ids == {
            "extropy", "crj", "cpj", "gcrj", "gcpj", "record_crj_upper", "record_cpj_lower",
            "record_gcrj_upper", "record_gcpj_lower", "kij", "crij_upper", "cpij_lower",
            "delta1", "delta2", "delta3", "delta_kij", "delta_crij"}

    def test_table_output(self):
        proc, _ = run_cli("measure", "--dist", "uniform", "--measure", "crj")
        assert proc.returncode == 0
        assert "crj(uniform)" in proc.stdout


class TestVerifyCommand:
    def test_normal_symmetric(self):
        proc, payload = run_cli("verify", "--dist", "normal", "--max-n", "3",
                                "--max-k", "3", "--max-m", "3",
                                "--output", "json", check_json="verify")
        assert proc.returncode == 0
        assert payload["verdict"] == "symmetric"

    def test_pareto_asymmetric(self):
        proc, payload = run_cli("verify", "--dist", "pareto:theta=2", "--max-n", "2",
                                "--max-k", "2", "--max-m", "2",
                                "--output", "json", check_json="verify")
        assert proc.returncode == 0  # verdict is data, not failure
        assert payload["verdict"] == "asymmetric"

    def test_uniform_residuals_small(self):
        proc, payload = run_cli("verify", "--dist", "uniform", "--max-n", "2",
                                "--max-k", "2", "--max-m", "2",
                                "--output", "json", check_json="verify")
        assert all(r["value"] is not None and abs(r["value"]) < 1e-6
                   for r in payload["residuals"])

    def test_parse_error_exits_2(self):
        proc, _ = run_cli("verify", "--dist", "power:theta=x")
        assert proc.returncode == 2


class TestClasscCommand:
    def test_classc_json(self):
        proc, payload = run_cli("classc", "--dist", "exponential:rate=1",
                                "--output", "json", check_json="classc")
        assert proc.returncode == 0
        assert payload["class_c"] == "member_leq"


class TestRecordsSimCommand:
    def test_simulation_payload(self):
        proc, payload = run_cli("records-sim", "--dist", "uniform", "--n", "2", "--k", "2",
                                "--count", "50", "--seed", "9",
                                "--output", "json", check_json="records-sim")
        assert proc.returncode == 0
        assert len(payload["values"]) + payload["aborted"] == 50
        assert all(0.0 <= v <= 1.0 for v in payload["values"])
        assert proc.stderr == ""

    def test_aborted_streams_warn_on_stderr(self):
        proc, payload = run_cli("records-sim", "--dist", "uniform", "--n", "3", "--max-draws", "4",
                                "--method", "scan", "--count", "50", "--seed", "1",
                                "--output", "json", check_json="records-sim")
        assert proc.returncode == 0
        assert payload["aborted"] == 38 and len(payload["values"]) == 12
        assert payload["method"] == "scan"
        assert proc.stderr == ("warning: 38 of 50 realizations hit --max-draws 4; "
                               "the sample omits the most extreme records\n")

    def test_exact_method_never_aborts(self):
        # the default draws every record; --max-draws is accepted and echoed
        proc, payload = run_cli("records-sim", "--dist", "uniform", "--n", "3", "--max-draws", "4",
                                "--count", "50", "--seed", "1",
                                "--output", "json", check_json="records-sim")
        assert proc.returncode == 0 and proc.stderr == ""
        assert payload["method"] == "exact" and payload["max_draws"] == 4
        assert payload["aborted"] == 0 and len(payload["values"]) == 50

    def test_underflow_exits_2(self):
        proc, _ = run_cli("records-sim", "--dist", "exponential", "--n", "800", "--count", "10",
                          "--seed", "1")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "n=800, k=1" in proc.stderr

    def test_env_seed_fallback(self):
        a, pa = run_cli("records-sim", "--dist", "uniform", "--count", "10",
                        "--output", "json", env_extra={"EXTROPY_SEED": "321"},
                        check_json="records-sim")
        b, pb = run_cli("records-sim", "--dist", "uniform", "--count", "10",
                        "--seed", "321", "--output", "json", check_json="records-sim")
        assert pa["values"] == pb["values"]
        assert pa["seed"] == 321

    @pytest.mark.parametrize("argv, raw", [
        (("records-sim", "--dist", "uniform", "--count", "5"), "1.5"),
        (("symtest", "--input", str(DATA / "symmetric_20.txt")), "abc"),
        # int reads "1_0" as 10 and an Arabic-Indic one as 1
        (("records-sim", "--dist", "uniform", "--count", "5"), "1_0"),
        (("records-sim", "--dist", "uniform", "--count", "5"), "\u0661"),
    ], ids=["records-sim", "symtest", "digit-groups", "non-ascii"])
    def test_non_integer_env_seed_exits_2(self, argv, raw):
        proc, _ = run_cli(*argv, env_extra={"EXTROPY_SEED": raw})
        assert proc.returncode == 2
        assert proc.stderr == f"error: environment variable EXTROPY_SEED={raw!r} is not an integer\n"

    @pytest.mark.parametrize("argv", [
        ("records-sim", "--dist", "uniform", "--count", "5"),
        ("symtest", "--input", str(DATA / "symmetric_20.txt")),
    ], ids=["records-sim", "symtest"])
    def test_negative_seed_names_its_source(self, monkeypatch, capsys, argv):
        # numpy's own message, "expected non-negative integer", named neither
        from extrec import cli

        assert cli.main([*argv, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        monkeypatch.setenv("EXTROPY_SEED", "-3")
        assert cli.main(list(argv)) == 2
        assert capsys.readouterr().err == ("error: environment variable EXTROPY_SEED must be "
                                           "an integer >= 0, got -3\n")


class TestSymtestCommand:
    def test_symmetric_toy_fails_to_reject(self):
        proc, payload = run_cli("symtest", "--input", str(DATA / "symmetric_20.txt"),
                                "--output", "json", check_json="symtest")
        assert proc.returncode == 0
        assert payload["statistic"] == 0.0
        assert payload["decision"] == "fail_to_reject"

    def test_exponential_fixture_rejects(self):
        proc, payload = run_cli("symtest", "--input", str(DATA / "exponential_200.txt"),
                                "--seed", "0", "--output", "json", check_json="symtest")
        assert proc.returncode == 0
        assert payload["decision"] == "reject"
        assert payload["n"] == 200  # header line auto-skipped

    @pytest.mark.parametrize("name", ["exponential_200.txt", "symmetric_20.txt"])
    def test_byte_order_mark_is_not_data(self, tmp_path, name):
        # a file saved with a UTF-8 BOM runs on every value of the plain one;
        # symmetric_20.txt has no header, so its first line is data
        bom = tmp_path / name
        bom.write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes())
        (plain, a), (marked, b) = (run_cli("symtest", "--input", str(f), "--seed", "0",
                                           "--output", "json", check_json="symtest")
                                   for f in (DATA / name, bom))
        assert plain.returncode == marked.returncode == 0, marked.stderr
        assert {**b, "input": str(DATA / name)} == a

    def test_missing_file_exits_2(self):
        proc, _ = run_cli("symtest", "--input", "does/not/exist.txt")
        assert proc.returncode == 2
        assert proc.stderr == ("error: cannot read input file 'does/not/exist.txt': "
                               f"{os.strerror(errno.ENOENT)}\n")

    def test_corrupt_line_diagnostic(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("\n".join(["1.0"] * 10 + ["oops"] + ["2.0"] * 10))
        proc, _ = run_cli("symtest", "--input", str(f))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {f}:11: not a decimal value: 'oops'\n"

    @pytest.mark.parametrize("line", [1, 5])
    @pytest.mark.parametrize("text", ["1_000", "\u0661", "0.\u0665"])
    def test_only_ascii_decimals_are_data(self, tmp_path, capsys, line, text):
        # float reads "1_000" as 1000: on line 5 of a 30-value N(0, 1) sample it
        # made the statistic -465.8; on line 1 it is data, not a header
        from extrec import cli

        values = [f"{v:.6f}" for v in np.random.default_rng(3).normal(size=30)]
        values[line - 1] = text
        f = tmp_path / "data.txt"
        f.write_text("\n".join(values) + "\n", encoding="utf-8")
        assert cli.main(["symtest", "--input", str(f)]) == 2
        assert capsys.readouterr().err == f"error: {f}:{line}: not a decimal value: {text!r}\n"

    def test_decimal_forms_are_data(self, tmp_path, capsys):
        from extrec import cli

        f = tmp_path / "forms.txt"
        f.write_text("\n".join(["1e3", ".5", "+2", " 2 ", "-1.25E-1"] + ["0.0"] * 15) + "\n")
        assert cli.main(["symtest", "--input", str(f), "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 20

    def test_short_file_exits_2(self, tmp_path):
        f = tmp_path / "short.txt"
        f.write_text("\n".join(str(v) for v in range(10)))
        proc, _ = run_cli("symtest", "--input", str(f))
        assert proc.returncode == 2
        assert proc.stderr == "error: sample must have at least 20 values, got 10\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--replicates", "100", "error: replicates must be an integer >= 199, got 100"),
        ("--alpha", "1.5", "error: alpha must lie in (0, 1), got 1.5"),
    ])
    def test_bootstrap_settings_rejected(self, flag, value, message):
        proc, _ = run_cli("symtest", "--input", str(DATA / "symmetric_20.txt"), flag, value)
        assert proc.returncode == 2
        assert proc.stderr == message + "\n"

    def test_non_finite_value_rejected(self, tmp_path):
        f = tmp_path / "inf.txt"
        f.write_text("\n".join(["1.0"] * 20 + ["inf"]))
        proc, _ = run_cli("symtest", "--input", str(f))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {f}:21: non-finite value: 'inf'\n"


SYM20 = str(DATA / "symmetric_20.txt")

#: (argv ending in the offending option, the library's message)
OUT_OF_RANGE = [
    (("measure", "--dist", "uniform", "--measure", "crj", "--n", "0"),
     "n must be an integer >= 1, got 0"),
    (("measure", "--dist", "normal", "--measure", "crj", "--tol", "0"),
     "tol must be a positive finite number, got 0.0"),
    (("measure", "--dist", "uniform", "--measure", "crj", "--tol", "inf"),
     "tol must be a positive finite number, got inf"),
    (("verify", "--dist", "uniform", "--max-n", "0"),
     "max_n must be an integer >= 1, got 0"),
    (("verify", "--dist", "uniform", "--tol", "inf"),
     "tol must be a positive finite number, got inf"),
    (("verify", "--dist", "uniform", "--quad-tol", "inf"),
     "quad_tol must be a positive finite number, got inf"),
    (("classc", "--dist", "uniform", "--grid-size", "0"), "grid_size must be an integer >= 64, got 0"),
    (("records-sim", "--dist", "uniform", "--count", "0"), "count must be an integer >= 1, got 0"),
    (("records-sim", "--dist", "uniform", "--max-draws", "0"), "max_draws must be an integer >= k, got 0"),
    (("symtest", "--input", SYM20, "--alpha", "nan"), "alpha must lie in (0, 1), got nan"),
    (("symtest", "--input", SYM20, "--replicates", "0"), "replicates must be an integer >= 199, got 0"),
    (("measure", "--measure", "crj", "--dist", "normal:mu=inf"),
     "bad parameters in spec 'normal:mu=inf': normal: mu must be finite, got inf"),
]


@pytest.mark.parametrize("argv, message", OUT_OF_RANGE,
                         ids=[f"{argv[0]} {argv[-2]} {argv[-1]}" for argv, _ in OUT_OF_RANGE])
def test_out_of_range_value_is_the_library_error(argv, message, capsys):
    # the CLI parses plain int/float; the library's own check reports the range
    from extrec import cli

    assert cli.main(list(argv)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


#: numeric flags read ASCII decimals only: int and float also take PEP 515
#: digit groups and non-ASCII digits, which no flag may read
NON_DECIMAL_FLAGS = [
    (("records-sim", "--dist", "uniform", "--count", "1_0"), "--count", "int"),
    (("records-sim", "--dist", "uniform", "--seed", "\u0661"), "--seed", "int"),
    (("measure", "--dist", "uniform", "--measure", "crj", "--tol", "1_0e-9"), "--tol", "float"),
    (("measure", "--dist", "uniform", "--measure", "crj", "--n", "x"), "--n", "int"),
]


@pytest.mark.parametrize("argv, flag, kind", NON_DECIMAL_FLAGS,
                         ids=[f"{flag} {argv[-1]!a}" for argv, flag, _ in NON_DECIMAL_FLAGS])
def test_numeric_flags_read_ascii_decimals_only(argv, flag, kind, capsys):
    from extrec import cli

    assert cli.main(list(argv)) == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: invalid {kind} value: {argv[-1]!r}\n")


@pytest.mark.parametrize("flag, text, value", [
    ("--tol", "1e-9", 1e-9), ("--tol", ".5e-8", 5e-9), ("--n", "+2", 2)])
def test_numeric_flags_read_decimal_literals(flag, text, value, capsys):
    from extrec import cli

    argv = ["measure", "--dist", "uniform", "--measure", "record_crj_upper", flag, text,
            "--output", "json"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["tol"] if flag == "--tol" else payload["params"]["n"]) == value


#: one line of each command's default text table; measure's is in TestMeasureCommand
TABLES = [
    (("verify", "--dist", "normal"), "verdict      : symmetric   (tolerance 1e-06)"),
    (("classc", "--dist", "normal"), "class_c(normal:mu=0,sigma=1) = member_equal"),
    (("records-sim", "--dist", "uniform", "--n", "2", "--k", "2", "--count", "50", "--seed", "1"),
     "realizations=50 aborted=0"),
    (("symtest", "--input", SYM20, "--replicates", "199", "--seed", "1"), "-> fail_to_reject"),
]


@pytest.mark.parametrize("argv, line", TABLES, ids=[argv[0] for argv, _ in TABLES])
def test_default_output_is_the_table(argv, line, capsys):
    # the table is built lazily, only for table output
    from extrec import cli

    assert cli.main(list(argv)) == 0
    assert line in capsys.readouterr().out


class TestDeterminism:
    def test_byte_identical_json_across_runs_and_threads(self):
        cases = [
            ("measure", "--dist", "power:theta=2", "--measure", "crj", "--output", "json"),
            ("records-sim", "--dist", "exponential:rate=1", "--n", "2", "--k", "1",
             "--count", "100", "--seed", "77", "--output", "json"),
            ("symtest", "--input", str(DATA / "exponential_200.txt"),
             "--seed", "5", "--output", "json"),
            ("verify", "--dist", "uniform", "--max-n", "2", "--max-k", "2",
             "--max-m", "2", "--output", "json"),
        ]
        for case in cases:
            outs = []
            for threads, hashseed in (("1", "0"), ("4", "12345")):
                proc, _ = run_cli(*case, env_extra={"OMP_NUM_THREADS": threads,
                                                    "PYTHONHASHSEED": hashseed})
                assert proc.returncode == 0, proc.stderr
                outs.append(proc.stdout)
            assert outs[0] == outs[1], case[0]


class TestSnapshotStatuses:
    """Every case of ``scripts/cli_snapshot.py`` keeps its exit code and outcome
    (quad status, verdict and residual status counts, aborted count, decision);
    values may move.  After a deliberate status change, regenerate the golden
    file with::

        PYTHONPATH=src python scripts/cli_snapshot.py | cut -d' ' -f1,4- \\
            > tests/golden/cli_snapshot_outcomes.txt
    """

    def test_exit_codes_and_outcomes_match_golden(self, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO / "scripts"))
        monkeypatch.chdir(REPO)  # symtest inputs are given relative to the checkout root
        snapshot = importlib.import_module("cli_snapshot")
        got = []
        for argv in snapshot.cases():
            code, out, _ = snapshot.run(argv)
            got.append(f"{code} {snapshot.outcome(argv, code, out)} {' '.join(argv)}")
        golden = (REPO / "tests" / "golden" / "cli_snapshot_outcomes.txt").read_text().splitlines()
        assert len(got) == len(golden)
        assert [line for line in got if line not in golden] == []
        assert got == golden


class TestSweepDiff:
    """``scripts/sweep.py --diff`` compares the fields both lines of a result
    carry, so the status-only golden checks statuses alone."""

    KEY = "normal:mu=0,sigma=1 crj 1,1,2,upper primary"

    @pytest.fixture
    def sweep(self, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO / "scripts"))
        return importlib.import_module("sweep")

    @pytest.fixture
    def diff(self, sweep, tmp_path):
        def run(a: str, b: str) -> int:
            (tmp_path / "a.txt").write_text(a)
            (tmp_path / "b.txt").write_text(b)
            return sweep.diff(str(tmp_path / "a.txt"), str(tmp_path / "b.txt"))
        return run

    def test_status_only_golden_matches_a_full_line(self, diff, capsys):
        full = f"# a summary line\n{self.KEY} converged -0x1.0p-1 0x1.0p-40 3 90 u\n"
        assert diff(f"{self.KEY} converged\n", full) == 0
        assert "status moves 0" in capsys.readouterr().out

    def test_moved_status_names_its_key(self, diff, capsys):
        assert diff(f"{self.KEY} converged\n", f"{self.KEY} no_convergence nan inf 4 120 u\n") == 1
        out = capsys.readouterr().out
        assert f"{self.KEY} moved: status" in out and "status moves 1" in out

    def test_value_move_between_full_lines(self, diff, capsys):
        a = f"{self.KEY} converged -0x1.0p-1 0x1.0p-40 3 90 u\n"
        assert diff(a, a.replace("-0x1.0p-1", "-0x1.0000000000001p-1")) == 1
        out = capsys.readouterr().out
        assert f"{self.KEY} moved: value " in out and "status moves 0, value moves 1" in out

    #: The sweep's totals where they last moved.  A rise of more than 2% in
    #: any of them fails; a fall passes, and the change that makes it lowers them.
    COUNT_CEILINGS = {"rounds": 19_670, "nodes": 13_837_950, "kernel_values": 14_399_154}

    def test_library_sweep_statuses_match_the_golden(self, sweep, tmp_path):
        # the whole sweep (about 8 s), as CI's experiment step runs it: it fails
        # on a numeric warning raised outside an errstate block, no result's
        # status may move from the committed golden, and its integrand work
        # may not grow
        out = tmp_path / "sweep.txt"
        with out.open("w") as f:
            subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "scripts/sweep.py"],
                           stdout=f, env=cli_env(PYTHONPATH="src"), cwd=REPO, check=True)
        assert sweep.diff(str(REPO / "tests" / "golden" / "sweep_statuses.txt"), str(out)) == 0
        totals = {name: int(sweep.summary(str(out))[name]) for name in self.COUNT_CEILINGS}
        risen = {name: (self.COUNT_CEILINGS[name], count) for name, count in totals.items()
                 if count > 1.02 * self.COUNT_CEILINGS[name]}
        assert not risen, f"sweep counts more than 2% above their ceilings (ceiling, now): {risen}"
