"""tests/linetrace.py lists the statements that no test ran, checked on a
tiny synthetic package and suite rather than on this one."""

import subprocess
import sys
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "linetrace.py"


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


def listing(tmp_path, *extra):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--package", str(tmp_path / "pkg" / "toy"),
         "--tests", str(tmp_path / "suite"), *extra],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr.splitlines()[-1]


def test_lists_statements_no_test_ran(tmp_path):
    write(tmp_path / "pkg" / "toy" / "__init__.py", "from .ops import double, halve\n")
    write(tmp_path / "pkg" / "toy" / "ops.py", """\
        def double(x):
            return 2 * x


        def halve(x):
            if x < 0:
                raise ValueError("negative")
            return x / 2
        """)
    write(tmp_path / "pkg" / "toy" / "unused.py", "VALUE = 1\n")
    write(tmp_path / "suite" / "test_double.py", """\
        import toy


        def test_double():
            assert toy.double(2) == 4
        """)
    write(tmp_path / "suite" / "test_halve.py", """\
        import toy


        def test_halve():
            assert toy.halve(4) == 2
        """)
    ops, unused = tmp_path / "pkg" / "toy" / "ops.py", tmp_path / "pkg" / "toy" / "unused.py"

    code, lines, summary = listing(tmp_path)
    assert code == 0
    assert lines == [f'{ops}:7: raise ValueError("negative")', f"{unused}: never imported"]
    assert summary == "2 statements not run"

    code, lines, summary = listing(tmp_path, "--without", "suite/test_halve.py")
    assert code == 0
    assert lines == [f"{ops}:6: if x < 0:", f'{ops}:7: raise ValueError("negative")',
                     f"{ops}:8: return x / 2", f"{unused}: never imported"]
    assert summary == "4 statements not run"


def test_failing_suite_gives_its_exit_code(tmp_path):
    write(tmp_path / "pkg" / "toy" / "__init__.py", "ANSWER = 42\n")
    write(tmp_path / "suite" / "test_fails.py", """\
        import toy


        def test_fails():
            assert toy.ANSWER == 41
        """)
    code, lines, _ = listing(tmp_path)
    assert code == 1 and lines == []
