import dataclasses
import errno
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hierflow.builder import build_hierarchy
from hierflow.errors import BuildFailedError
from hierflow.maxflow import SolveStats

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,argv", [
    ("hierarchy_report.py", ["--phi", "1/0"]),
    ("hierarchy_report.py", ["--phi", "x"]),
    ("hierarchy_report.py", ["--phi", "0"]),
    ("hierarchy_report.py", ["--phi", "2"]),
    ("hierarchy_report.py", ["--n", "3"]),
    ("bench_families.py", ["--sizes", "x"]),
    ("bench_families.py", ["--sizes", "0"]),
    ("bench_families.py", ["--sizes", "8,1"]),
    ("hierarchy_report.py", ["--seeds", "0"]),
    ("hierarchy_report.py", ["--seeds", "-2"]),
])
def test_bad_script_flag_exit_2_with_error_line(script, argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)] + argv,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert any("error:" in line for line in proc.stderr.splitlines())


def test_hierarchy_report_names_a_failed_build_and_exits_1(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("hierarchy_report",
                                                  ROOT / "scripts" / "hierarchy_report.py")
    report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report)

    def fails(g, caps, phi, seed):
        if seed == 1:
            raise BuildFailedError("no valid hierarchy after 5 attempts")
        return build_hierarchy(g, caps, phi, seed=seed)

    monkeypatch.setattr(report, "build_hierarchy", fails)
    assert report.main(["--n", "4", "--seeds", "2"]) == 1
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors and all(" seed 1: no valid hierarchy" in line for line in errors)
    assert "error: cycle seed 1:" in errors[0]
    assert "Traceback" not in err
    rows = out.splitlines()[1:]
    assert rows and all(row.split("\t")[3] == "0" for row in rows)


def test_bench_families_checks_every_timed_run(monkeypatch, capsys):
    # each row solves three times with each solver, and a wrong value on
    # any run, not only the first, fails the script
    spec = importlib.util.spec_from_file_location("bench_families",
                                                  ROOT / "scripts" / "bench_families.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    calls = []

    def off_on_run_2(inst, seed, real=bench.max_flow):
        res = real(inst, seed=seed)
        calls.append(res)
        if len(calls) == 2:
            res = dataclasses.replace(res, stats=dataclasses.replace(
                res.stats, value=res.stats.value + 1))
        return res

    monkeypatch.setattr(bench, "max_flow", off_on_run_2)
    assert bench.main(["--sizes", "8"]) == 1
    assert len(calls) == bench.RUNS
    _out, err = capsys.readouterr()
    assert "MISMATCH on random-8-32-0 (exact run 2)" in err


def test_bench_families_scaled_rows_sum_their_phases_counters():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_families.py"),
                           "--sizes", "8"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split("\t") for line in proc.stdout.splitlines()]
    scaled = [dict(zip(header, row)) for row in rows if row[0].endswith("-scaled")]
    assert scaled and all(int(row["iters"]) >= 1 for row in scaled)


def test_bench_families_counts_2n_minus_2_cycle_climbs():
    # gen_cycle ping-pongs about n^2 / 5 climbs without the global lift.
    # With it: n - 1 climbs for the first lift, then one climb to its death
    # for each vertex the one augmentation dooms, before the next lift is due
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_families.py"),
                           "--sizes", "8,60"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert "relabels" in header
    cycles = [dict(zip(header, row)) for row in rows if row[0].startswith("cycle-")]
    assert [row["n"] for row in cycles] == ["8", "60"]
    assert [int(row["relabels"]) for row in cycles] == [14, 118]


def test_bench_families_runs_the_dense_family_above_n_32():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_families.py"),
                           "--sizes", "8,40"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split("\t") for line in proc.stdout.splitlines()]
    rows = [dict(zip(header, row)) for row in rows]
    dense = [row for row in rows if row["instance"].startswith("random-")
             and int(row["m"]) == int(row["n"]) ** 2 // 8]
    assert [row["n"] for row in dense] == ["40"]
    assert int(dense[0]["value"]) > 0


def test_bench_families_writes_its_rows_as_json(tmp_path):
    out = tmp_path / "bench.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_families.py"),
                           "--sizes", "8,12", "--seed", "3", "--json", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split("\t") for line in proc.stdout.splitlines()]
    table = [dict(zip(header, row)) for row in rows]
    data = json.loads(out.read_text())
    assert (data["seed"], data["sizes"]) == (3, [8, 12])
    assert [row["instance"] for row in data["rows"]] == [row["instance"] for row in table]
    fields = {f.name for f in dataclasses.fields(SolveStats)}
    for row, line in zip(data["rows"], table):
        assert fields | {"instance", "n", "m", "exact_ms", "ek_ms"} == set(row)
        assert [str(row[k]) for k in ("n", "m", "value", "iterations", "phases", "relabels")] \
            == [line[k] for k in ("n", "m", "value", "iters", "phases", "relabels")]
        assert len(row["phase_values"]) == row["phases"]
    assert any(row["phases"] > 1 for row in data["rows"])


def test_bench_families_json_path_that_cannot_be_written_exits_2_before_any_row(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_families.py"),
                               "--sizes", "8", "--json", str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr
        assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
            f"error: {path}: {os.strerror(errno.EISDIR if path == tmp_path else errno.ENOENT)}"]


def test_bench_families_mismatch_leaves_an_existing_json_file_as_it_was(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_families",
                                                  ROOT / "scripts" / "bench_families.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    def off_by_one(inst, seed, real=bench.max_flow):
        res = real(inst, seed=seed)
        return dataclasses.replace(res, stats=dataclasses.replace(
            res.stats, value=res.stats.value + 1))

    out = tmp_path / "bench.json"
    out.write_text('{"seed": 0}\n')
    monkeypatch.setattr(bench, "max_flow", off_by_one)
    assert bench.main(["--sizes", "8", "--json", str(out)]) == 1
    assert out.read_text() == '{"seed": 0}\n'
    monkeypatch.undo()
    assert bench.main(["--sizes", "8", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["sizes"] == [8]


def test_committed_bench_pairs_cover_one_corpus_with_equal_values():
    # each BENCH_pr*_before/after pair measures the same rows at the same
    # seed and sizes, and a change that claims a speed-up keeps every value
    pairs = sorted(ROOT.glob("BENCH_pr*_before.json"))
    assert pairs
    for before_path in pairs:
        after_path = before_path.with_name(before_path.name.replace("_before", "_after"))
        before, after = (json.loads(p.read_text()) for p in (before_path, after_path))
        assert (before["seed"], before["sizes"]) == (after["seed"], after["sizes"]), after_path
        assert [r["instance"] for r in before["rows"]] == [r["instance"] for r in after["rows"]]
        assert [r["value"] for r in before["rows"]] == [r["value"] for r in after["rows"]]
