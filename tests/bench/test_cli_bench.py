"""Exit codes and file behaviour of ``repro bench run|compare``.

A tiny private suite (one no-op benchmark, single-shot policy) is
registered once for this module so the CLI paths that *run* a suite do
real work without paying for the shipped smoke suite.
"""

import json

import pytest

from repro.bench.registry import register
from repro.bench.schema import load_suite
from repro.bench.stats import ONCE
from repro.cli import _parse_regress, main

_SUITE = "clitest"


@register("clitest_noop", suites=(_SUITE,), ops=10, policy=ONCE)
def _noop_benchmark():
    def run():
        return {"widgets": 10.0}

    return run


# -- threshold parsing -------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [("40%", 0.4), ("25%", 0.25)],
)
def test_parse_regress(text, expected):
    assert _parse_regress(text) == pytest.approx(expected)


def test_parse_regress_rejects_negative():
    with pytest.raises(ValueError):
        _parse_regress("-5%")


@pytest.mark.parametrize("text", ["40", "0.4", "150", "nan%", "inf%"])
def test_parse_regress_rejects(text):
    """A bare number is ambiguous ('1' read as 100%, '2' as 2%), so only
    the N% form is accepted; a non-finite N% would let nothing regress."""
    with pytest.raises(ValueError):
        _parse_regress(text)


def test_compare_bare_max_regress_exits_2(capsys):
    assert main(["bench", "compare", "--baseline", "unused.json",
                 "--max-regress", "1"]) == 2
    assert "bad --max-regress" in capsys.readouterr().err


# -- bench run ---------------------------------------------------------------


def test_run_writes_json(tmp_path, capsys):
    out = str(tmp_path / "BENCH_clitest.json")
    assert main(["bench", "run", "--suite", _SUITE, "--out", out]) == 0
    suite = load_suite(out)
    assert suite.suite == _SUITE
    assert suite.by_name()["clitest_noop"].counters == {"widgets": 10.0}
    stdout = capsys.readouterr().out
    assert "clitest_noop" in stdout
    assert f"wrote {out}" in stdout


def test_run_unknown_suite_exits_2(capsys):
    assert main(["bench", "run", "--suite", "nonesuch"]) == 2
    assert "unknown suite" in capsys.readouterr().err


# -- bench compare -----------------------------------------------------------


@pytest.fixture()
def baseline(tmp_path):
    out = str(tmp_path / "BENCH_clitest.json")
    main(["bench", "run", "--suite", _SUITE, "--out", out])
    return out


def test_compare_identical_files_exits_0(baseline, capsys):
    assert (
        main(["bench", "compare", "--baseline", baseline, "--new", baseline])
        == 0
    )
    assert "0 regression(s)" in capsys.readouterr().out


def test_compare_rerunning_the_suite_exits_0(baseline, capsys):
    # no --new: the baseline's suite is re-run in process.  The huge
    # threshold keeps the no-op benchmark's nanosecond-scale jitter from
    # mattering -- this test pins the code path, not the gate.
    assert (
        main(
            ["bench", "compare", "--baseline", baseline,
             "--max-regress", "100000%"]
        )
        == 0
    )
    assert "0 regression(s)" in capsys.readouterr().out


def test_compare_regression_exits_1(baseline, tmp_path, capsys):
    doc = json.load(open(baseline))
    bench = doc["benchmarks"]["clitest_noop"]
    for field in ("median_s", "p10_s", "p90_s", "mean_s", "min_s", "max_s"):
        bench[field] = bench[field] / 1000.0  # ancient, much-faster baseline
    fast = str(tmp_path / "BENCH_fast.json")
    with open(fast, "w") as fh:
        json.dump(doc, fh)
    assert (
        main(
            [
                "bench", "compare", "--baseline", fast, "--new", baseline,
                "--max-regress", "40%",
            ]
        )
        == 1
    )
    assert "REGRESSED" in capsys.readouterr().out


def test_compare_bad_threshold_exits_2(baseline, capsys):
    assert (
        main(
            [
                "bench", "compare", "--baseline", baseline,
                "--max-regress", "lots",
            ]
        )
        == 2
    )
    assert "bad --max-regress" in capsys.readouterr().err


def test_compare_missing_baseline_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["bench", "compare", "--baseline", missing]) == 2
    assert "compare:" in capsys.readouterr().err


def test_compare_invalid_baseline_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 999}')
    assert main(["bench", "compare", "--baseline", str(bad)]) == 2
    assert "schema version" in capsys.readouterr().err


def test_compare_unknown_suite_in_baseline_needs_new(tmp_path, capsys):
    doc = {"schema": 1, "suite": "retired", "benchmarks": {}}
    path = tmp_path / "BENCH_retired.json"
    path.write_text(json.dumps(doc))
    assert main(["bench", "compare", "--baseline", str(path)]) == 2
    assert "pass --new" in capsys.readouterr().err
