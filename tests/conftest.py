"""Child interpreters started by the tests (the CLI, import checks) import
the same sullivan package as the tests themselves, installed or not."""

import os

import sullivan

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(sullivan.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
