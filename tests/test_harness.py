"""The test run itself: a failing test is reported and the run goes on."""

import os
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def test_failing_hypothesis_test_does_not_stop_the_run(pytester, monkeypatch):
    # the patcher import only warns where libcst is installed
    pytest.importorskip("libcst")
    src = str(TESTS.parent / "src")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    pytester.makeconftest((TESTS / "conftest.py").read_text())
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_passes():
            pass
    """)
    # a fresh process, so that this run's own import of the patcher
    # does not hide a missing one
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
