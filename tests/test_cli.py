import argparse
import contextlib
import importlib
import io
import os
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierflow import cli, maxflow
from hierflow.builder import build_hierarchy
from hierflow.cli import main, make_parser
from hierflow.config import default_phi
from hierflow.errors import HierflowError
from hierflow.graph import MAX_SIZE
from hierflow.hierarchy import hierarchy_from_text, hierarchy_to_text, validate_hierarchy
from hierflow.io import parse_instance
from hierflow.maxflow import edmonds_karp

from helpers import random_instance_text

SINGLE = """c tiny
p max 2 1
n 1 s
n 2 t
a 1 2 5
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_ek_single_edge(tmp_path, capsys):
    path = _write(tmp_path, "single.dimacs", SINGLE)
    code, out, _ = _run(["solve", "--algo", "ek", path], capsys)
    assert code == 0
    assert out == "value 5\n"


def test_solve_exact_matches_ek(tmp_path, capsys):
    path = _write(tmp_path, "single.dimacs", SINGLE)
    code, out, _ = _run(["solve", "--algo", "exact", "--seed", "7", path], capsys)
    assert code == 0
    assert out == "value 5\n"


def test_solve_exact_deterministic(tmp_path, capsys):
    code0, _, _ = _run(["gen", "--model", "random", "--gen-n", "10", "--m", "25",
                        "--cap", "6", "--seed", "3", "--out",
                        str(tmp_path / "r.dimacs")], capsys)
    assert code0 == 0
    outs = []
    for _ in range(2):
        code, out, _ = _run(["solve", "--algo", "exact", "--seed", "7",
                             str(tmp_path / "r.dimacs")], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_solve_writes_flow_file(tmp_path, capsys):
    path = _write(tmp_path, "single.dimacs", SINGLE)
    flow_path = str(tmp_path / "flow.txt")
    code, out, _ = _run(["solve", "--algo", "ek", "--flow", flow_path, path], capsys)
    assert code == 0
    assert Path(flow_path).read_text() == "f 1 2 5\n"


def test_solve_parse_error_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "broken.dimacs", "p max 2 1\nn 1 s\na 1 2 5\n")
    code, _, err = _run(["solve", "--algo", "ek", path], capsys)
    assert code == 2
    assert "error" in err


# what each command runs once its files are open
_RUNS = ("edmonds_karp", "max_flow", "dag_approx_flow",
         "build_hierarchy", "generate", "validate_hierarchy")


@pytest.mark.parametrize("argv", [
    ["solve", "{missing}"],
    ["solve", "{folder}"],
    ["solve", "--flow", "{folder}", "{graph}"],
    ["approx-dag", "--flow", "{folder}", "{graph}"],
    ["gen", "--model", "random", "--gen-n", "6", "--out", "{folder}"],
    ["hierarchy", "--out", "{folder}", "{graph}"],
    ["solve", "{binary}"],
    ["validate", "--phi", "1/4", "{binary}", "{graph}"],
], ids=["missing-input", "folder-input", "folder-flow", "folder-approx-dag-flow",
        "folder-gen-out", "folder-hierarchy-out", "binary-input", "binary-hierarchy"])
def test_file_faults_exit_2_with_one_error_line_naming_the_path(tmp_path, capsys, monkeypatch,
                                                                argv):
    """A path that cannot be read or written is reported before the run:
    the solvers, builder and generator raise if called, and nothing (no
    `value` line, no summary) reaches stdout."""
    paths = {"missing": str(tmp_path / "absent.dimacs"), "folder": str(tmp_path / "folder"),
             "graph": _write(tmp_path, "single.dimacs", SINGLE),
             "binary": str(tmp_path / "binary.txt")}
    (tmp_path / "folder").mkdir()
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe")
    fault = next(paths[key] for key in ("missing", "folder", "binary")
                 if "{%s}" % key in argv)

    def never(*_args, **_kwargs):
        raise RuntimeError("ran before its files were checked")

    for name in _RUNS:
        monkeypatch.setattr(cli, name, never)
    code, out, err = _run([arg.format(**paths) for arg in argv], capsys)
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {fault}: ")


def test_failed_run_leaves_an_existing_output_file_as_it_was(tmp_path, capsys):
    """Output files are opened before the run but emptied only when the
    run's text is written: a run that fails keeps the old contents, and
    one that succeeds replaces them.  A device is written, not emptied."""
    out = tmp_path / "old.txt"
    out.write_text("old contents\n")
    code, _out, err = _run(["gen", "--model", "grid", "--rows", "0", "--cols", "3",
                            "--out", str(out)], capsys)
    assert code == 2 and err.startswith("error: ")
    assert out.read_text() == "old contents\n"
    graph = _write(tmp_path, "single.dimacs", SINGLE)
    code, _out, _err = _run(["solve", "--algo", "ek", "--flow", str(out), graph], capsys)
    assert code == 0 and out.read_text() == "f 1 2 5\n"
    code, _out, _err = _run(["gen", "--model", "cycle", "--gen-n", "3", "--out", os.devnull],
                            capsys)
    assert code == 0


@pytest.mark.parametrize("text, line", [
    ("p max 3 2\nn 1 s\nn 3 t\na 1 2 1\na 2 2 1\n", 5),
    ("p diff 2 1\nsrc 1 1\na 1 1 1\nsnk 2 1\n", 3),
    ("p max 3 2\nn 2 s\nn 2 t\na 1 2 1\na 2 3 1\n", 3),
    ("c x\np diff -1 0\n", 2),
], ids=["self-loop-max", "self-loop-diff", "source-is-sink", "negative-n"])
def test_solve_bad_instance_exit_2_on_its_line(tmp_path, capsys, text, line):
    path = _write(tmp_path, "bad.txt", text)
    for algo in ("exact", "ek"):
        code, out, err = _run(["solve", "--algo", algo, path], capsys)
        assert code == 2 and out == ""
        assert f"error: line {line}:" in err


def test_approx_dag(tmp_path, capsys):
    code0, _, _ = _run(["gen", "--model", "dag", "--gen-n", "8", "--m", "16",
                        "--cap", "4", "--seed", "2", "--out",
                        str(tmp_path / "d.dimacs")], capsys)
    code, out, _ = _run(["approx-dag", str(tmp_path / "d.dimacs")], capsys)
    assert code == 0
    assert out.startswith("value ")


def test_approx_dag_rejects_cycle(tmp_path, capsys):
    code0, _, _ = _run(["gen", "--model", "cycle", "--gen-n", "6", "--out",
                        str(tmp_path / "c.dimacs")], capsys)
    code, _, err = _run(["approx-dag", str(tmp_path / "c.dimacs")], capsys)
    assert code == 1


def test_gen_deterministic_bytes(tmp_path, capsys):
    a = str(tmp_path / "a.dimacs")
    b = str(tmp_path / "b.dimacs")
    for out in (a, b):
        code, _, _ = _run(["gen", "--model", "dumbbell", "--k", "4", "--bridge",
                           "2", "--seed", "9", "--out", out], capsys)
        assert code == 0
    assert Path(a).read_text() == Path(b).read_text()


def test_gen_bad_params_exit_2(tmp_path, capsys):
    code, _, err = _run(["gen", "--model", "cycle", "--gen-n", "1",
                         "--out", str(tmp_path / "x")], capsys)
    assert code == 2


@pytest.mark.parametrize("argv,param", [
    (["--model", "cycle", "--gen-n", "3", "--cap", "-3"], "cap >= 0"),
    (["--model", "dumbbell", "--k", "2", "--cap", "-1"], "cap >= 0"),
    (["--model", "grid", "--rows", "2", "--cols", "2", "--cap", "-1"], "cap >= 1"),
])
def test_gen_rejects_a_capacity_that_solve_would_reject(capsys, argv, param):
    # gen writes no instance that solve then refuses, and the grid's
    # randint(1, cap) never leaks its own message
    code, out, err = _run(["gen"] + argv, capsys)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and len(err.splitlines()) == 1
    assert param in err


def _limit_address_space():
    # runs in the child between fork and exec, so only the child is limited
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


_OVERSIZED_TEXTS = ("p diff {} 0\n", "p diff 2 {}\n", "p max {} 0\nn 1 s\nn 2 t\n",
                    "p max 3 {}\nn 1 s\nn 2 t\n")
_FILE_COMMANDS = (["solve", "--algo", "ek"], ["solve"], ["approx-dag"],
                  ["sparse-cut", "--kappa", "1"], ["hierarchy"], ["bench"],
                  ["validate", "--phi", "1/2"])
_GEN_SIZE_FLAGS = (("cycle", "--gen-n"), ("random", "--m"), ("dag", "--gen-n"),
                   ("dumbbell", "--k"), ("grid", "--rows"))


def test_oversized_sizes_exit_2_with_error_line_under_a_memory_limit(tmp_path):
    # each size is refused before anything is allocated; without the check
    # the child runs into its 1 GB address-space limit with a MemoryError
    rng = random.Random(74)

    def big():
        return rng.choice([MAX_SIZE + 1, 10 ** 12, rng.randint(MAX_SIZE + 2, 10 ** 30)])
    runs = [(["solve", "--algo", "ek"], "p diff 1000000000000 0\n"),
            (["gen", "--model", "cycle", "--gen-n", "1000000000000"], None)]
    runs += [(cmd, _OVERSIZED_TEXTS[i % len(_OVERSIZED_TEXTS)].format(big()))
             for i, cmd in enumerate(_FILE_COMMANDS)]
    runs += [(["gen", "--model", model, flag, str(big())], None)
             for model, flag in _GEN_SIZE_FLAGS]
    hier = _write(tmp_path, "any.hier", "1 1\n")
    for i, (argv, text) in enumerate(runs):
        if argv[0] == "validate":
            argv = argv + [hier]
        if text is not None:
            argv = argv + [_write(tmp_path, f"big{i}.txt", text)]
        proc = subprocess.run([sys.executable, "-m", "hierflow"] + argv, capture_output=True,
                              text=True, preexec_fn=_limit_address_space, timeout=120)
        assert proc.returncode == 2, (argv, text, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, text, proc.stderr)
        assert any(line.startswith("error: ") and f"more than {MAX_SIZE}" in line
                   for line in proc.stderr.splitlines()), (argv, text, proc.stderr)


def test_out_of_memory_is_an_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError
    monkeypatch.setattr("hierflow.cli.parse_instance", exhausted)
    code, out, err = _run(["solve", "--algo", "ek", _write(tmp_path, "single.dimacs", SINGLE)],
                          capsys)
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_hierarchy_and_validate_round_trip(tmp_path, capsys):
    graph = str(tmp_path / "c8.dimacs")
    code, _, _ = _run(["gen", "--model", "cycle", "--gen-n", "8", "--out", graph], capsys)
    hier = str(tmp_path / "h.txt")
    code, out, _ = _run(["hierarchy", "--phi", "1/8", "--seed", "1",
                         "--out", hier, graph], capsys)
    assert code == 0
    assert "VALID" in out
    code, out, _ = _run(["validate", "--phi", "1/8", hier, graph], capsys)
    assert code == 0
    assert out.splitlines()[0] == "VALID"
    # a stricter phi refutes the cycle hierarchy
    code, out, _ = _run(["validate", "--phi", "1/4", hier, graph], capsys)
    assert code == 1
    assert out.splitlines()[0] == "INVALID"


def test_hierarchy_on_cycle_with_zero_capacity_edge(tmp_path, capsys):
    # 3 -> 1 carries nothing, so the cut {1} has no capacity into it
    graph = _write(tmp_path, "zero.dimacs",
                   "p max 3 3\nn 1 s\nn 3 t\na 1 2 3\na 2 3 3\na 3 1 0\n")
    hier = str(tmp_path / "h.txt")
    code, out, _ = _run(["hierarchy", "--phi", "1/16", "--out", hier, graph], capsys)
    assert code == 0
    assert out.splitlines()[1] == "VALID"


def test_hierarchy_validates_once_per_attempt(tmp_path, capsys, monkeypatch):
    # the summary is the report of build_hierarchy's own validation
    import hierflow.builder
    import hierflow.cli

    def refuse(*_args, **_kw):
        raise RuntimeError("validated again after the build")

    calls = []
    real = hierflow.builder.validate_hierarchy

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(hierflow.cli, "validate_hierarchy", refuse)
    monkeypatch.setattr(hierflow.builder, "validate_hierarchy", counted)
    graph = str(tmp_path / "c8.dimacs")
    _run(["gen", "--model", "cycle", "--gen-n", "8", "--out", graph], capsys)
    code, out, err = _run(["hierarchy", "--phi", "1/8", graph], capsys)
    assert code == 0
    assert "VALID" in err.splitlines()
    attempts = int(err.split("attempts ")[1].split()[0])
    assert len(calls) == attempts


@pytest.mark.parametrize("phi", ["0", "-1/4", "1", "3/2"])
def test_validate_phi_outside_unit_interval_exit_2(tmp_path, capsys, phi):
    graph = str(tmp_path / "r.dimacs")
    _run(["gen", "--model", "random", "--gen-n", "20", "--m", "60", "--cap", "3",
          "--seed", "2", "--out", graph], capsys)
    hier = str(tmp_path / "h.txt")
    code, _, _ = _run(["hierarchy", "--out", hier, graph], capsys)
    assert code == 0
    try:
        code = main(["validate", f"--phi={phi}", hier, graph])
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert "VALID" not in out.out
    assert any("error:" in line for line in out.err.splitlines())


def test_validate_malformed_hierarchy_exit_2(tmp_path, capsys):
    graph = _write(tmp_path, "single.dimacs", SINGLE)
    hier = _write(tmp_path, "h.txt", "1 x\n")
    code, _, err = _run(["validate", "--phi", "1/8", hier, graph], capsys)
    assert code == 2
    assert any(line.startswith("error:") for line in err.splitlines())


def test_sparse_cut_command_routable(tmp_path, capsys):
    path = _write(tmp_path, "single.dimacs", "p max 2 1\nn 1 s\nn 2 t\na 1 2 1\n")
    # diffusion variant keeps the demand finite
    diff = _write(tmp_path, "single.diff",
                  "p diff 2 1\na 1 2 1\nsrc 1 1\nsnk 2 1\n")
    code, out, _ = _run(["sparse-cut", "--kappa", "1", diff], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "flow 1"
    assert lines[1] == "routed"


def test_sparse_cut_checks_strong_connectivity_only_under_debug(tmp_path, capsys):
    path = _write(tmp_path, "path.diff", "p diff 3 2\na 1 2 1\na 2 3 1\nsrc 1 1\nsnk 3 1\n")
    code, out, _ = _run(["sparse-cut", "--kappa", "1", path], capsys)
    assert code == 0
    assert out.splitlines() == ["flow 1", "routed"]
    code, out, err = _run(["sparse-cut", "--kappa", "1", "--debug-invariants", path], capsys)
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if "error:" in line] == [
        "error: 3 strongly connected components"]
    assert "Traceback" not in err


def test_sparse_cut_command_cut_branch(tmp_path, capsys):
    # two triangles with one bridge each way; demand exceeds the bridge
    text = ("p diff 6 8\n"
            "a 1 2 1\na 2 3 1\na 3 1 1\n"
            "a 4 5 1\na 5 6 1\na 6 4 1\n"
            "a 3 4 1\na 6 1 1\n"
            "src 1 3\nsnk 5 3\n")
    diff = _write(tmp_path, "bridge.diff", text)
    code, out, _ = _run(["sparse-cut", "--kappa", "1", "--seed", "3", diff], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("flow ")
    assert lines[1].startswith("cut ")
    assert lines[2].startswith("metrics ")


def test_bench_table(tmp_path, capsys):
    path = _write(tmp_path, "single.dimacs", SINGLE)
    code, out, _ = _run(["bench", "--algo", "ek,exact", "--seed", "1", path], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# seed 1"
    assert lines[1].split("\t") == ["instance", "algo", "value", "wall_ms",
                                    "augmentations", "relabels"]
    rows = [l.split("\t") for l in lines[2:]]
    assert len(rows) == 2
    for row in rows:
        assert row[2] == "5"


def test_bench_runs_the_solver_that_solve_runs(tmp_path, capsys, monkeypatch):
    """Capacity 10^6 on two vertices exceeds n^2 = 4, so `solve --algo
    exact` scales capacities, and `bench` takes the same path and prints
    the same value."""
    path = _write(tmp_path, "wide.dimacs", SINGLE.replace("a 1 2 5", "a 1 2 1000000"))
    scaled = []
    real = maxflow.capacity_scaled_max_flow

    def spy(inst, inner):
        scaled.append(inst.n)
        return real(inst, inner)

    monkeypatch.setattr(maxflow, "capacity_scaled_max_flow", spy)
    code, out, _ = _run(["solve", "--algo", "exact", "--seed", "1", path], capsys)
    assert code == 0 and out == "value 1000000\n"
    code, out, _ = _run(["bench", "--algo", "exact", "--seed", "1", path], capsys)
    assert code == 0
    assert out.splitlines()[2].split("\t")[:3] == [path, "exact", "1000000"]
    assert scaled == [2, 2]


def test_solve_scales_a_phase_with_more_supply_than_sink_capacity(tmp_path, capsys):
    """Capacity 10 exceeds n^2 = 9; shifted by 1, vertex 1's supply of 4
    becomes 2 and the sink capacities 3 and 1 become 1 and 0."""
    path = _write(tmp_path, "spread.diff",
                  "p diff 3 2\na 1 2 10\na 1 3 10\nsrc 1 4\nsnk 2 3\nsnk 3 1\n")
    code, out, _ = _run(["solve", "--algo", "exact", path], capsys)
    assert (code, out) == (0, "value 4\n")
    code, out, _ = _run(["bench", "--algo", "exact", path], capsys)
    assert code == 0
    assert out.splitlines()[2].split("\t")[:3] == [path, "exact", "4"]


@pytest.mark.parametrize("algo", ["foo,,ek", "exact,", "EK", ""])
def test_bench_rejects_unknown_solver_names(tmp_path, capsys, algo):
    path = _write(tmp_path, "single.dimacs", SINGLE)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--algo", algo, path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert any("error:" in line and "--algo" in line for line in err.splitlines())


def test_sparse_cut_command_on_the_empty_instance(tmp_path, capsys):
    path = _write(tmp_path, "empty.diff", "p diff 0 0\n")
    code, out, _ = _run(["sparse-cut", "--kappa", "1", path], capsys)
    assert code == 0
    assert out.splitlines() == ["flow 0", "routed"]


# every subcommand's options: each one is read by the command it belongs to
_OPTIONS = {
    "solve": {"--algo", "--flow", "--seed", "--phi", "--debug-invariants"},
    "approx-dag": {"--flow", "--debug-invariants"},
    "sparse-cut": {"--kappa", "--terminals", "--seed", "--phi", "--debug-invariants"},
    "hierarchy": {"--out", "--seed", "--phi", "--debug-invariants"},
    "validate": {"--phi"},
    "gen": {"--model", "--seed", "--out", "--format", "--gen-n", "--m", "--cap", "--k",
            "--bridge", "--rows", "--cols"},
    "bench": {"--algo", "--seed", "--phi", "--debug-invariants"},
}


def test_each_subcommand_has_exactly_its_options():
    sub = next(a for a in make_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_OPTIONS)
    for cmd, parser in sub.choices.items():
        opts = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        assert opts == _OPTIONS[cmd], cmd


def test_readme_documents_exactly_the_parsers_options():
    # the backticked flags of README's "Flags, by command", shared ones included
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("Flags, by command", 1)[1].split("Exit codes:", 1)[0]
    documented = set(re.findall(r"`(--[a-z0-9-]+)", section))
    sub = next(a for a in make_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {o for parser in sub.choices.values() for a in parser._actions
               for o in a.option_strings} - {"-h", "--help"}
    assert documented == options


def test_bench_deterministic_modulo_walltime(tmp_path, capsys):
    path = _write(tmp_path, "single.dimacs", SINGLE)
    norm = []
    for _ in range(2):
        code, out, _ = _run(["bench", "--algo", "exact", "--seed", "4", path], capsys)
        assert code == 0
        rows = []
        for line in out.splitlines():
            cols = line.split("\t")
            if len(cols) == 6 and cols[0] != "instance":
                cols[3] = "-"  # wall time is inherently not reproducible
            rows.append("\t".join(cols))
        norm.append("\n".join(rows))
    assert norm[0] == norm[1]


def test_console_entry_point(tmp_path):
    path = _write(tmp_path, "single.dimacs", SINGLE)
    proc = subprocess.run([sys.executable, "-m", "hierflow", "solve",
                           "--algo", "ek", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "value 5\n"


BRIDGE = ("p diff 6 8\n"
          "a 1 2 1\na 2 3 1\na 3 1 1\n"
          "a 4 5 1\na 5 6 1\na 6 4 1\n"
          "a 3 4 1\na 6 1 1\n"
          "src 1 3\nsnk 5 3\n")


@pytest.mark.parametrize("argv", [
    ["solve", "--phi", "0/1"],
    ["solve", "--phi", "1/0"],
    ["solve", "--phi", "3/2"],
    ["solve", "--phi", "half"],
    ["sparse-cut", "--kappa", "0"],
    ["sparse-cut", "--kappa", "-3"],
])
def test_bad_params_exit_2_with_error_line(tmp_path, capsys, argv):
    path = _write(tmp_path, "bridge.diff", BRIDGE)
    try:
        code = main(argv + [path])
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert any("error:" in line for line in err.splitlines())


def test_huge_height_constant_hits_the_n2_cap(tmp_path, capsys, monkeypatch):
    # the nominal heights overflow to inf; the n^2 cap still applies
    path = _write(tmp_path, "bridge.diff", BRIDGE)
    plain_cut = _run(["sparse-cut", "--kappa", "1", path], capsys)[1]
    monkeypatch.setattr(maxflow, "C_H", 1e308)
    monkeypatch.setattr(importlib.import_module("hierflow.sparse_cut"), "C_6", 1e308)
    code, out, _ = _run(["solve", path], capsys)
    assert code == 0
    assert out == f"value {edmonds_karp(parse_instance(BRIDGE)).stats.value}\n"
    code, out, _ = _run(["sparse-cut", "--kappa", "1", path], capsys)
    assert code == 0
    assert out == plain_cut


def test_phi_below_float_range_hits_the_n2_cap(tmp_path, capsys):
    # float(phi) (and phi^2) underflow to 0: heights are capped at n^2
    path = _write(tmp_path, "bridge.diff", BRIDGE)
    tiny = "1/1" + "0" * 400
    code, out, _ = _run(["solve", "--phi", tiny, path], capsys)
    assert code == 0
    assert out == f"value {edmonds_karp(parse_instance(BRIDGE)).stats.value}\n"
    code, out, _ = _run(["sparse-cut", "--kappa", "1", "--phi", "1/1" + "0" * 200, path],
                        capsys)
    assert code == 0
    # phi = 10^-100 already puts the nominal height far above the cap
    assert out == _run(["sparse-cut", "--kappa", "1", "--phi", "1/1" + "0" * 100, path],
                       capsys)[1]


def test_kappa_beyond_float_range_hits_the_n2_cap(tmp_path, capsys):
    path = _write(tmp_path, "bridge.diff", BRIDGE)
    code, out, _ = _run(["sparse-cut", "--kappa", "1" + "0" * 400, path], capsys)
    assert code == 0
    # kappa = 10^300 still fits a float and is far above the cap too
    assert out == _run(["sparse-cut", "--kappa", "1" + "0" * 300, path], capsys)[1]
    assert out.splitlines()[-1] == "routed"


def _random_three_out(tmp_path, cap):
    """A 20-vertex random 3-out digraph, every capacity `cap`."""
    rng = random.Random(5)
    n = 20
    lines = [f"p max {n} {3 * n}", "n 1 s", f"n {n} t"]
    for u in range(n):
        for v in rng.sample([x for x in range(n) if x != u], 3):
            lines.append(f"a {u + 1} {v + 1} {cap}")
    return _write(tmp_path, "three-out.dimacs", "\n".join(lines) + "\n")


def test_hierarchy_with_capacities_beyond_float_range(tmp_path, capsys):
    # every capacity 10^400: the one component is too big for the
    # exhaustive check, so cut-matching and sparse-cut push-relabel run on
    # amounts no float can hold
    n = 20
    graph = _random_three_out(tmp_path, 10 ** 400)
    hier = str(tmp_path / "h.txt")
    code, out, _ = _run(["hierarchy", "--seed", "1", "--out", hier, graph], capsys)
    assert code == 0
    # the summary is the build's own validation of the hierarchy it returns
    assert out.splitlines()[1] == "VALID"
    with open(graph) as fh:
        g = parse_instance(fh.read()).g
    with open(hier) as fh:
        h = hierarchy_from_text(fh.read(), g)
    assert sorted(h.d.union(*h.levels)) == list(range(3 * n))


def test_summary_counts_components_that_were_only_sampled(tmp_path, capsys):
    # at unit capacities and seed 5 the build certifies the 20-vertex
    # component by sampled cuts, which a larger sample refutes: VALID on a
    # sampled component proves nothing, and the summary says so
    graph = _random_three_out(tmp_path, 1)
    hier = str(tmp_path / "h.txt")
    code, out, _ = _run(["hierarchy", "--phi", "1/8", "--seed", "5", "--out", hier, graph],
                        capsys)
    assert code == 0
    assert out.splitlines()[1:] == [
        "VALID", "components checked 1: exact 0, sampled 1 (not refuted, not proved)"]
    code, out, _ = _run(["validate", "--phi", "1/8", hier, graph], capsys)
    assert code == 1
    assert out.splitlines() == [
        "INVALID", "error level-1 component of size 20 refuted by sampled cut of size 9",
        "components checked 1: exact 0, sampled 0 (not refuted, not proved)"]


# `hierflow solve` over fuzzed instance texts (at most 8 vertices), valid
# and invalid --phi values (None: the default) and a few seeds
_GOOD_PHIS = [None, "1/16", "1/8", "1/3", "2/3", " 1/4"]
_BAD_PHIS = ["0", "1", "3/2", "-1/4", "1/0", "0/0", "x", "1/2/3", ""]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(_GOOD_PHIS) | st.sampled_from(_BAD_PHIS),
       st.integers(-2, 5))
def test_solve_fuzz_exact_value_or_error_line(tmp_path_factory, rng, phi, seed):
    text = random_instance_text(rng)
    path = tmp_path_factory.mktemp("fuzz") / "inst.txt"
    path.write_text(text)
    argv = ["solve", "--seed", str(seed)] + (["--phi", phi] if phi is not None else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + [str(path)])
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
    try:
        want = edmonds_karp(parse_instance(text)).stats.value
    except HierflowError:
        want = None
        assert code == 2  # a fault in the input file
    if want is not None and phi in _GOOD_PHIS:
        assert code == 0
    if code == 0:
        assert out.getvalue() == f"value {want}\n"
    else:
        assert code in (1, 2)
        assert any(line.startswith(("error:", "hierflow solve: error:"))
                   for line in err.getvalue().splitlines())
        assert "Traceback" not in err.getvalue()


# `hierarchy`, `validate`, `sparse-cut` and `approx-dag` over fuzzed
# instance texts, congestions and phis;
# each value is a usable one (None: the flag is left out) or, one time in
# ten, a zero, negative or non-finite one.  Each run exits 0 with a result
# checked here, or 1 or 2 with an `error:` line (`validate` also exits 1
# on INVALID); a parsed instance with usable values never exits 2
_FUZZ_VALUES = {
    "--kappa": (["1", "3", "50"], ["0", "-2", "nan", "inf", "1e308"]),
    "--phi": ([None, "1/16", "1/8", "1/3"], ["0", "3/2", "1/0", "x"]),
}
_FUZZ_FLAGS = {"hierarchy": ["--phi"],
               "validate": ["--phi"],
               "sparse-cut": ["--kappa", "--phi"],
               "approx-dag": []}


def _fuzz_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fuzz_hierarchy_text(rng, text):
    """The hierarchy `hierarchy` builds for the text, sometimes with one
    line dropped or one level changed; a stub when the text has a fault."""
    try:
        inst = parse_instance(text)
        built = build_hierarchy(inst.g, inst.cap, seed=rng.randrange(4))
    except HierflowError:
        return "0 0\n"
    lines = hierarchy_to_text(built.hierarchy, inst.m).splitlines()
    if lines and rng.random() < 0.5:
        i = rng.randrange(len(lines))
        if rng.random() < 0.5:
            del lines[i]
        else:
            lines[i] = f"{lines[i].split()[0]} {rng.randint(-1, 3)}"
    return "\n".join(lines) + "\n"


def _check_fuzz_result(cmd, argv, text, code, out):
    """Check one successful run's output against the instance."""
    inst = parse_instance(text)
    g = inst.g
    if cmd == "hierarchy":
        phi = argv[argv.index("--phi") + 1] if "--phi" in argv else None
        phi = Fraction(phi) if phi else default_phi(g.n)
        report = validate_hierarchy(g, inst.cap, hierarchy_from_text(out, g), phi)
        assert report.ok, report.errors
    elif cmd == "validate":
        assert out.splitlines()[0] == ("VALID" if code == 0 else "INVALID")
    elif cmd == "approx-dag":
        value = int(out.split()[1])
        best = edmonds_karp(inst).stats.value
        assert value <= best <= 6 * value
    else:  # sparse-cut: recount the cut's boundaries and terminal volumes
        terminal = argv[argv.index("--terminals") + 1] == "all"
        lines = out.splitlines()
        value = int(lines[0].split()[1])
        assert (lines[1] == "routed") == (value == sum(inst.delta))
        if lines[1] != "routed":
            side = {int(x) - 1 for x in lines[1].split()[1:]}
            vol = [0] * g.n
            b_out = b_in = 0
            for e in range(g.m):
                u, v, c = g.tails[e], g.heads[e], inst.cap[e]
                vol[u] += c if terminal else 0
                vol[v] += c if terminal else 0
                b_out += c if u in side and v not in side else 0
                b_in += c if v in side and u not in side else 0
            vol_s = sum(vol[v] for v in side)
            assert lines[2].split()[1:9] == [
                "out", str(b_out), "in", str(b_in), "vol", str(vol_s),
                "volother", str(sum(vol) - vol_s)]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(sorted(_FUZZ_FLAGS)),
       st.integers(0, 2 ** 32 - 1))
def test_other_subcommands_fuzz_checked_result_or_error_line(tmp_path_factory, rng, cmd,
                                                             knob_seed):
    text = random_instance_text(rng)
    # an unbiased stream for the flag values, so bad ones stay one in ten
    knobs = random.Random(knob_seed)
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "inst.txt"
    path.write_text(text)
    argv = [cmd] if cmd in ("validate", "approx-dag") else [cmd, "--seed",
                                                           str(knobs.randrange(4))]
    usable = True
    for flag in _FUZZ_FLAGS[cmd]:
        good, bad = _FUZZ_VALUES[flag]
        value = knobs.choice(bad) if knobs.random() < 0.1 else knobs.choice(good)
        usable = usable and value not in bad
        if flag == "--phi" and cmd == "validate":
            value = value or "1/16"  # required there
        argv += [flag, value] if value is not None else []
    if cmd == "sparse-cut":
        argv += ["--terminals", knobs.choice(["all", "none"])]
    hier_text = _fuzz_hierarchy_text(knobs, text)
    if cmd == "validate":
        hier = tmp / "hier.txt"
        hier.write_text(hier_text)
        argv.append(str(hier))
    code, out, err = _fuzz_run(argv + [str(path)])
    assert "Traceback" not in err
    try:
        g = parse_instance(text).g
        if cmd == "validate":
            hierarchy_from_text(hier_text, g)
    except HierflowError:
        assert code == 2  # a fault in an input file
    else:
        assert code != 2 or not usable
        if cmd == "validate" and not usable:  # only --phi can be bad there
            assert code == 2
    if code == 0 or (cmd == "validate" and code == 1 and out):
        _check_fuzz_result(cmd, argv, text, code, out)
    else:
        assert code in (1, 2)
        assert any(line.startswith(("error:", f"hierflow {cmd}: error:"))
                   for line in err.splitlines())
