"""Golden byte-identity of CLI outputs across code changes.

Each digest is the sha256 of a CLI run's stdout, recorded before the
arithmetic core was consolidated onto polyfq.  Criterion 11 only compares
two runs of the same code; these digests pin the outputs across commits.
Every run uses a fresh interpreter, because the cached field contexts carry
warmed tables that change the search and conjecture op counts.
"""

import hashlib
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

HEIGHT_BOX = '{"kind":"heightBox","d":2,"H":1}'

GOLDEN = [
    (["verify", "--range", "4..64", "--seed", "1"],
     "ab59ae6deaa20f22b4ee8b18ff1197881d85328fb46d93769d70208c1631fe43"),
    (["verify", "--range", "4..64", "--seed", "1", "--format", "json"],
     "7c800dc59810178f79442bd7272d653d7a69c749c8d9c73d8b0408881b4b217c"),
    (["sweep", "--range", "2..5,2..3"],
     "7bfb3878fcdfd71e97a9f2d6967336da5ab01f6abb82bca1ae5a61015e504f3f"),
    (["sweep", "--range", "2..5,2..3", "--format", "json"],
     "b89097434a59b16fbcde943210bbb6b29faf683e3884a5555555fd5a6d30aa28"),
    (["search", "--field", "2^1:8", "--subset", HEIGHT_BOX],
     "3b03e972b16732e700e1cb7be9867d6972f052323331ecba415073b804235bab"),
    (["conjecture", "--field", "3^1:2", "--element", "1,1", "--range", "2..8",
      "--format", "json"],
     "648d32d482b2f072131138b6130bf0185f8c4c10805c5dac761f5b927794b8eb"),
    (["field-info", "--field", "2^2:3"],
     "803f134d1ebb30d63df930a503e46c76657070659d0ed63b8f207a07bf4c5c49"),
]


def _cli_stdout(args) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "pnfield.cli", *args],
                          capture_output=True, env=env, check=True)
    return proc.stdout


@pytest.mark.parametrize("args,digest", GOLDEN, ids=[
    "verify-text", "verify-json", "sweep-csv", "sweep-json", "search", "conjecture", "field-info"])
def test_cli_output_digest(args, digest):
    assert hashlib.sha256(_cli_stdout(args)).hexdigest() == digest

