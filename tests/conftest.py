"""Checks that hold for every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    # a test that starts a process also reaps it: a dump's worker included
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left {'unreaped' if pid else 'running'}")
