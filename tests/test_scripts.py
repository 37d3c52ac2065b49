import os
import subprocess
import sys
from pathlib import Path

import pytest

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
])
def test_bad_script_flag_exit_2_with_error_line(script, argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)] + argv,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert any("error:" in line for line in proc.stderr.splitlines())
