"""Regular-pencil queries stay off the Kronecker machinery.

A square pencil needs one deflation pass to split into its infinite and
finite parts, and its finite eigenvalues need no Schur vectors.  These tests
count the calls that would betray a full ``klf`` or a QZ with Schur vectors.
"""

from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from dstk import analysis, cli, pencil
from dstk.cli import write_system
from dstk.pencil import weierstrass_structure
from dstk.system import random_system


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for mod, attr, name in [
        (scipy.linalg, "qz", "qz"),
        (scipy.linalg, "ordqz", "qz"),
        (pencil, "klf", "klf"),
        (analysis, "klf", "klf"),
        (analysis, "minreal", "minreal"),
    ]:
        monkeypatch.setattr(mod, attr, counted(name, getattr(mod, attr)))
    return counts


@pytest.fixture
def proper24():
    return random_system(24, 2, 2, "continuous", rng=np.random.default_rng(24))


@pytest.mark.parametrize(
    "query",
    [
        analysis.minreal,
        analysis.poles,
        analysis.mcmillan_degree,
        analysis.is_stable,
        analysis.minimality_report,
        lambda g: weierstrass_structure(g.A, g.E),
    ],
    ids=["minreal", "poles", "mcmillan_degree", "is_stable", "minimality_report", "weierstrass_structure"],
)
def test_regular_pencil_query_runs_no_klf_or_qz(calls, proper24, query):
    query(proper24)
    assert calls["klf"] == 0
    assert calls["qz"] == 0


def test_cli_info_reduces_once_per_structure(calls, proper24, tmp_path, capsys):
    path = str(tmp_path / "g.dss")
    write_system(path, proper24)
    assert cli.run(["info", path]) == 0
    capsys.readouterr()
    assert calls["minreal"] <= 2
    assert calls["klf"] <= 1
    assert calls["qz"] == 0
