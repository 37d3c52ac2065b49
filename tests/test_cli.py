import contextlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierflow.cli import main
from hierflow.errors import HierflowError
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
    assert open(flow_path).read() == "f 1 2 5\n"


def test_solve_parse_error_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "broken.dimacs", "p max 2 1\nn 1 s\na 1 2 5\n")
    code, _, err = _run(["solve", "--algo", "ek", path], capsys)
    assert code == 2
    assert "error" in err


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
    assert open(a).read() == open(b).read()


def test_gen_bad_params_exit_2(tmp_path, capsys):
    code, _, err = _run(["gen", "--model", "cycle", "--gen-n", "1",
                         "--out", str(tmp_path / "x")], capsys)
    assert code == 2


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
        want = edmonds_karp(parse_instance(text).inst).stats.value
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
