"""Results depend on the inputs alone: no probe seed, no ``rng`` option
outside ``random_system``, and CLI runs that ignore ``--seed``."""

import inspect
import json
import re
from pathlib import Path

import numpy as np

import dstk
from dstk.cli import run, write_system
from dstk.ops import series
from dstk.system import random_system


def test_only_random_system_takes_rng():
    takes = [
        name
        for name in dstk.__all__
        if inspect.isfunction(getattr(dstk, name)) and "rng" in inspect.signature(getattr(dstk, name)).parameters
    ]
    assert takes == ["random_system"]
    assert not hasattr(dstk, "set_probe_seed")


def test_no_random_state_outside_random_system():
    banned = re.compile(r"default_rng|Generator|contextvars")
    body, first = inspect.getsourcelines(random_system)
    allowed = {("system.py", k) for k in range(first, first + len(body))}
    src = Path(dstk.__file__).parent
    hits = [
        f"{path.name}:{k}"
        for path in sorted(src.glob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line) and (path.name, k) not in allowed
    ]
    assert not hits, hits


def test_cli_solve_ignores_seed(tmp_path, capsys, monkeypatch):
    # G = G1 G2 is 3 x 3 of normal rank 2, so solve_right cuts a 2 x 2 core
    # out of it by pivoted QR; F = G X0 is compatible
    monkeypatch.delenv("DSTK_SEED", raising=False)
    r = np.random.default_rng(8)
    G = series(random_system(4, 2, 3, "continuous", rng=r), random_system(4, 3, 2, "continuous", rng=r))
    F = series(G, random_system(4, 1, 3, "continuous", rng=r))
    gpath, fpath = str(tmp_path / "g.dss"), str(tmp_path / "f.dss")
    write_system(gpath, G)
    write_system(fpath, F)
    runs = []
    for seed in (1, 2, 3, None):
        out = tmp_path / f"x{seed}.dss"
        flags = [] if seed is None else ["--seed", str(seed)]
        assert run(["solve", gpath, fpath, "-o", str(out), "--out", "json", *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == seed
        del report["results"]["written"]
        runs.append((out.read_bytes(), report["results"]))
    assert all(x == runs[0] for x in runs[1:])
