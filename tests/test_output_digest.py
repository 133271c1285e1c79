"""Every CLI run of output_digest.RUNS writes the bytes its committed digest
records, with the same exit code.  The bytes depend on numpy, scipy and
their LAPACK, so the digest holds the versions it was made with: under
other versions the test fails, naming both, rather than skipping."""

import json

import pytest

from output_digest import DIGEST, RUNS, digest, versions

RECORDED = json.loads(DIGEST.read_text())


def test_digest_covers_every_run():
    assert set(RECORDED["runs"]) == set(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_the_digest(tmp_path, name):
    recorded = {k: RECORDED[k] for k in versions()}
    assert recorded == versions(), (
        f"the digest was made with {recorded}, this is {versions()}: "
        "rewrite it with tests/output_digest.py and check what moved")
    assert digest(name, tmp_path) == RECORDED["runs"][name]
