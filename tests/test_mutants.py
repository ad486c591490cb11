"""The mutation sampler's command line (tests/mutants.py)."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

MUTANTS = Path(__file__).resolve().parent / "mutants.py"


def test_list_to_a_closed_pipe_exits_2_with_one_error_line():
    """`--list | head` closes the pipe early: one error line, exit 2, and no
    traceback or "Exception ignored" at shutdown."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the listing is written
    try:
        proc = subprocess.run(
            [sys.executable, str(MUTANTS), "--count", "0", "--list"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    err = proc.stderr
    assert err.startswith("error: cannot write the output") and err.count("\n") == 1, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_list_to_a_full_device_exits_2_with_one_error_line():
    """`--list > /dev/full` cannot write its listing: one error line, exit
    2, and no traceback or "Exception ignored" at shutdown."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, str(MUTANTS), "--count", "0", "--list"],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert proc.returncode == 2
    err = proc.stderr
    assert err.startswith("error: cannot write the output") and err.count("\n") == 1, err
