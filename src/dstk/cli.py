"""Command-line front end ``dstk``.

Reads and writes descriptor systems in a versioned text format, dispatches
analysis / factorization / solver subcommands, and emits human-readable or
JSON reports.  Each subcommand is declared once, beside its handler: its
name, help line and arguments form one entry of the table the parser is
built from, and its handler returns the systems it produces for ``run`` to
write.  Exit codes: 0 success, 1 usage, input-format or output-file error,
2 numerical failure.  A failure prints ``error [<code>]: <message>`` (or
the usage text) to stderr; under ``--out json`` it prints
``{"command": ..., "error": {"code": ..., "message": ...}}`` to stdout
instead, with the same exit code.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys as _sys

import numpy as np

from . import analysis, factor, ops, pencil, solve
from .analysis import StabilityRegion
from .exceptions import DstkError, ParseError, RegionInvalid
from .system import DescriptorSystem, TimeDomain, eval_tfm, make_system

__all__ = ["parse_system", "format_system", "run", "main"]

FORMAT_HEADER = "dstk-dss v1"


# ---------------------------------------------------------------------------
# SystemFile format


def _fmt(x: float) -> str:
    # 17 significant digits render every float64 exactly; round trips are
    # bit exact
    return format(float(x), ".17g")


def _finite_float(text):
    """``float(text)``, or a float array from a list of tokens in one numpy call; non-finite values raise."""
    x = np.asarray(text, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite number in {text!r}")
    return x if x.ndim else float(x)


def format_system(sys: DescriptorSystem) -> str:
    lines = [FORMAT_HEADER, f"domain {sys.domain.value}", f"n {sys.n}", f"m {sys.m}", f"p {sys.p}"]

    def emit(name, M):
        # zero-sized blocks keep just their tag; shapes come from the header
        lines.append(name)
        M = np.atleast_2d(M)
        if M.shape[1] == 0:
            return
        for row in M:
            lines.append(" ".join(_fmt(v) for v in row))

    emit("A", sys.A)
    if not sys.is_standard:
        emit("E", sys.E)
    emit("B", sys.B)
    emit("C", sys.C)
    emit("D", sys.D)
    return "\n".join(lines) + "\n"


def write_system(path: str, sys: DescriptorSystem) -> None:
    text = format_system(sys)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _content_lines(lines):
    """``(lineno, text)`` of each stripped line that is neither blank nor a
    ``#`` comment, numbered from 1 over all lines; read as they are reached."""
    return ((i, s) for i, s in enumerate(map(str.strip, lines), 1) if s and not s.startswith("#"))


def parse_system(text: str) -> DescriptorSystem:
    """Parse SystemFile text; the E block may be omitted, meaning E = I."""
    lines = text.splitlines()
    # past the last content line every read finds None at the last line number
    body = itertools.chain(_content_lines(lines), itertools.repeat((len(lines), None)))

    def fail(msg, lineno=None):
        where = f"line {lineno}: " if lineno is not None else ""
        raise ParseError(f"{where}{msg}")

    ln, first = next(body)
    if first is None:
        fail("empty system file")
    if first != FORMAT_HEADER:
        fail(f"expected header {FORMAT_HEADER!r}", ln)
    hdr = {}
    for key in ("domain", "n", "m", "p"):
        ln, line = next(body)
        if line is None:
            fail(f"missing header field {key!r}")
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            fail(f"expected {key!r} field, got {line!r}", ln)
        hdr[key] = parts[1]
    try:
        n, m, p = int(hdr["n"]), int(hdr["m"]), int(hdr["p"])
        domain = TimeDomain(hdr["domain"])
    except ValueError as exc:
        raise ParseError(f"bad header value: {exc}") from None
    if min(n, m, p) < 0:
        fail(f"negative dimension in header (n {n}, m {m}, p {p})")

    blocks = {"E": np.eye(n)}
    ln, tag = next(body)
    for name, rows, cols in (("A", n, n), ("E", n, n), ("B", n, m), ("C", p, n), ("D", p, m)):
        if tag != name:
            if name == "E":
                continue
            fail(f"expected matrix block {name!r}", ln)
        M = blocks[name] = np.zeros((rows, cols))
        for i in range(rows if cols else 0):
            ln, row = next(body)
            if row is None:
                fail(f"matrix {name}: missing row {i + 1}")
            vals = row.split()
            if len(vals) != cols:
                fail(f"matrix {name} row {i + 1}: expected {cols} entries, got {len(vals)}", ln)
            try:
                M[i] = _finite_float(vals)
            except ValueError:
                fail(f"matrix {name} row {i + 1}: invalid or non-finite number", ln)
        ln, tag = next(body)
    if tag is not None:
        fail(f"unexpected trailing content {tag!r}", ln)
    return make_system(*(blocks[name] for name in "AEBCD"), domain)


def read_system(path: str) -> DescriptorSystem:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_system(text)


def _read_matrix(path: str) -> np.ndarray:
    """Plain whitespace matrix file ('#' comments allowed)."""
    rows = []
    try:
        with open(path) as fh:
            for lineno, s in _content_lines(fh):
                try:
                    rows.append(_finite_float(s.split()))
                except ValueError:
                    raise ParseError(f"{path} line {lineno}: invalid or non-finite number") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: empty matrix")
    w = len(rows[0])
    if any(len(r) != w for r in rows):
        raise ParseError(f"{path}: ragged rows")
    return np.array(rows)


# ---------------------------------------------------------------------------
# reporting


def _jc(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _fmt_complex(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}i"


def _cmatrix(M) -> list:
    M = np.atleast_2d(M)
    return [[_jc(v) for v in row] for row in M]


def _render_value(v, indent=""):
    if isinstance(v, dict):
        if set(v) == {"re", "im"}:
            return _fmt_complex(complex(v["re"], v["im"]))
        out = []
        for k, val in v.items():
            out.append(f"{indent}{k}: {_render_value(val, indent + '  ')}")
        return "\n" + "\n".join(out)
    if isinstance(v, list):
        if v and isinstance(v[0], list):
            rows = []
            for row in v:
                rows.append(indent + "  [" + ", ".join(_render_value(x) for x in row) + "]")
            return "\n" + "\n".join(rows)
        return "[" + ", ".join(_render_value(x) for x in v) + "]"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _emit(report: dict, out_mode: str) -> None:
    if out_mode == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"command: {report['command']}")
    for path in report["inputs"]:
        print(f"input: {path}")
    for k, v in report["results"].items():
        print(f"{k}: {_render_value(v, '  ')}")
    print(f"seed: {report['seed']}")
    tolv = report["tolerances"]["tol"]
    print(f"tol: {'auto' if tolv is None else _fmt(tolv)}")


def _pz_dict(info) -> dict:
    return {
        "finite": [_jc(z) for z in info.finite],
        "infinite": info.infinite_count,
        "total": info.total,
    }


def _parse_region(spec: str | None, domain) -> StabilityRegion:
    if spec is None or spec == "stable":
        return analysis.stability_region(domain)
    if spec == "lhp":
        return StabilityRegion.left_half_plane()
    if spec == "disk":
        return StabilityRegion.unit_disk()
    try:
        if spec.startswith("half-plane:"):
            return StabilityRegion.half_plane(_finite_float(spec.split(":", 1)[1]))
        if spec.startswith("disk:"):
            return StabilityRegion.disk(_finite_float(spec.split(":", 1)[1]))
    except (ValueError, RegionInvalid) as exc:
        raise ParseError(f"bad region {spec!r}: {exc}") from None
    raise ParseError(f"bad region {spec!r} (use lhp, disk, half-plane:<a>, disk:<r>, stable)")


# ---------------------------------------------------------------------------
# subcommands, each declared once beside its handler.  A handler returns
# ``(inputs, results, outputs)``; ``run`` writes each ``(path, system)`` of
# ``outputs`` in order and reports the paths under ``written``.


_COMMANDS = []  # (name, summary, argument specs, handler), in the order of the usage text


def _arg(*names, **kwargs):
    """The arguments of one ``add_argument`` call."""
    return names, kwargs


_SYSTEM = _arg("system")
_OUTPUT = _arg("-o", "--output", required=True)
_SIDE = _arg("side", choices=["left", "right"])
_REGION = _arg("--region", default="stable")


def _command(name, summary, *specs):
    """Declare the decorated handler as the subcommand ``name``."""

    def declare(fn):
        _COMMANDS.append((name, summary, specs, fn))
        return fn

    return declare


@_command("info", "poles/zeros/rank/degree/minimality report", _SYSTEM)
def _cmd_info(args, tol):
    g = read_system(args.system)
    gm, nf, ninf = analysis._reduce(g, tol)
    pz = analysis._poles(gm, nf, ninf)
    *_, ks, r = analysis._structure(gm, tol)
    zz = analysis._zeros(ks)
    rep = analysis.minimality_report(g, tol=tol)
    return [args.system], {
        "domain": g.domain.value,
        "order": g.n,
        "inputs_count": g.m,
        "outputs_count": g.p,
        "normal_rank": r,
        "mcmillan_degree": pz.total,
        "poles": _pz_dict(pz),
        "zeros": _pz_dict(zz),
        "kronecker": {"nr": zz.kronecker_ranks[0], "nl": zz.kronecker_ranks[1]},
        "minimality": {
            "finite_controllable": rep.finite_controllable,
            "infinite_controllable": rep.infinite_controllable,
            "finite_observable": rep.finite_observable,
            "infinite_observable": rep.infinite_observable,
            "no_nondynamic_modes": rep.no_nondynamic_modes,
            "minimal": rep.minimal,
        },
        "stable": analysis._all_stable(pz.finite, pz.infinite_count, g.domain),
        "minimum_phase": analysis._all_stable(zz.finite, zz.infinite_count, g.domain),
    }, []


@_command("eval", "evaluate the TFM at a complex point", _SYSTEM, _arg("--at", required=True, metavar="RE,IM"))
def _cmd_eval(args, tol):
    g = read_system(args.system)
    try:
        lam = complex(*map(_finite_float, args.at.split(",")))
    except (TypeError, ValueError):
        raise ParseError(f"bad --at value {args.at!r} (use RE,IM)") from None
    return [args.system], {"lambda": _jc(lam), "value": _cmatrix(eval_tfm(g, lam))}, []


@_command("minreal", "minimal realization", _SYSTEM, _OUTPUT)
def _cmd_minreal(args, tol):
    g = read_system(args.system)
    gm = analysis.minreal(g, tol=tol)
    return [args.system], {"order_in": g.n, "order_out": gm.n}, [(args.output, gm)]


_COUPLINGS = {
    "series": ops.series,
    "parallel": ops.parallel,
    "rowcat": ops.concat_row,
    "colcat": ops.concat_col,
    "diag": ops.diag_stack,
}


@_command("connect", "couple two systems",
          _arg("kind", choices=list(_COUPLINGS)), _arg("system1"), _arg("system2"), _OUTPUT)
def _cmd_connect(args, tol):
    gc = _COUPLINGS[args.kind](read_system(args.system1), read_system(args.system2))
    return [args.system1, args.system2], {"kind": args.kind, "order": gc.n}, [(args.output, gc)]


@_command("decompose", "additive good/bad decomposition", _SYSTEM, _REGION,
          _arg("--improper-to-bad", action="store_true"), _arg("--out-good", required=True),
          _arg("--out-bad", required=True))
def _cmd_decompose(args, tol):
    g = read_system(args.system)
    region = _parse_region(args.region, g.domain)
    pair = factor.additive_decompose(g, region, improper_to_bad=args.improper_to_bad, tol=tol)
    results = {"good_order": pair.first.n, "bad_order": pair.second.n}
    return [args.system], results, [(args.out_good, pair.first), (args.out_bad, pair.second)]


@_command("cf", "coprime factorization", _SIDE, _SYSTEM, _REGION,
          _arg("--out-n", required=True), _arg("--out-m", required=True))
def _cmd_cf(args, tol):
    g = read_system(args.system)
    region = _parse_region(args.region, g.domain)
    fn = factor.lcf if args.side == "left" else factor.rcf
    pair = fn(g, region, tol=tol)
    results = {"side": args.side, "numerator_order": pair.first.n, "denominator_order": pair.second.n}
    return [args.system], results, [(args.out_n, pair.first), (args.out_m, pair.second)]


@_command("iofac", "inner-outer factorization", _SYSTEM,
          _arg("--out-inner", required=True), _arg("--out-outer", required=True))
def _cmd_iofac(args, tol):
    g = read_system(args.system)
    pair = factor.inner_outer(g, tol=tol)
    results = {"inner_columns": pair.inner_columns, "inner_order": pair.first.n, "outer_order": pair.second.n}
    return [args.system], results, [(args.out_inner, pair.first), (args.out_outer, pair.second)]


@_command("nullspace", "rational nullspace basis", _SIDE, _SYSTEM, _OUTPUT)
def _cmd_nullspace(args, tol):
    g = read_system(args.system)
    fn = solve.left_nullspace if args.side == "left" else solve.right_nullspace
    basis = fn(g, tol=tol)
    shape = {"rows": basis.p, "cols": basis.m}
    return [args.system], {"side": args.side, "basis_shape": shape, "order": basis.n}, [(args.output, basis)]


@_command("solve", "solve G X = F", _arg("system_g"), _arg("system_f"), _OUTPUT)
def _cmd_solve(args, tol):
    res = solve.solve_right(read_system(args.system_g), read_system(args.system_f), tol=tol)
    results = {"solution_order": res.particular.n, "null_basis_cols": res.null_basis.m}
    return [args.system_g, args.system_f], results, [(args.output, res.particular)]


@_command("match", "L2 model matching min ||F - G X||", _arg("system_g"), _arg("system_f"), _OUTPUT)
def _cmd_match(args, tol):
    X, parts = solve.l2_model_match(read_system(args.system_g), read_system(args.system_f), tol=tol)
    return [args.system_g, args.system_f], {"solution_order": X.n, "error_norm": parts.error_norm}, [(args.output, X)]


@_command("klf", "Kronecker-like structure of a raw pencil M - lambda*N", _arg("matrix_m"), _arg("matrix_n"))
def _cmd_klf(args, tol):
    M = _read_matrix(args.matrix_m)
    N = _read_matrix(args.matrix_n)
    _, _, _, _, ks = pencil.klf(M, N, tol=tol)
    return [args.matrix_m, args.matrix_n], {
        "right_indices": [int(i) for i in ks.right_indices],
        "left_indices": [int(i) for i in ks.left_indices],
        "finite_eigenvalues": [_jc(z) for z in ks.finite_eigenvalues],
        "infinite_divisor_degrees": [int(d) for d in ks.infinite_divisor_degrees],
        "nr": ks.nr,
        "nl": ks.nl,
        "nreg": ks.nreg,
        "normal_rank": ks.normal_rank,
    }, []


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # reported by run, in the requested format
        raise ParseError(message, self)


@functools.cache  # built once: parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="rank tolerance (default: automatic)")
    common.add_argument("--seed", type=int, default=None, help="echoed in the report; results do not depend on it (env DSTK_SEED fallback)")
    common.add_argument("--out", choices=["text", "json"], default="text", help="report format")

    ap = _Parser(prog="dstk", description="descriptor-system toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, summary, specs, fn in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=summary)
        for names, kwargs in specs:
            p.add_argument(*names, **kwargs)
        p.set_defaults(fn=fn)
    return ap


def run(argv=None) -> int:
    """Execute one command; prints the report and returns the exit code."""
    argv = _sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit:  # --help
        return 0
    except ParseError as exc:
        message, parser = exc.args
        if "--out=json" in argv or any(a == "--out" and b == "json" for a, b in zip(argv, argv[1:])):
            _emit({"command": parser.prog.partition(" ")[2] or None, "error": {"code": exc.code, "message": message}}, "json")
        else:
            parser.print_usage(_sys.stderr)
            print(f"{parser.prog}: error: {message}", file=_sys.stderr)
        return 1

    try:
        if args.tol is not None and not 0.0 <= args.tol < np.inf:
            raise ParseError(f"--tol must be a finite number >= 0, got {args.tol!r}")
        seed = args.seed
        env = os.environ.get("DSTK_SEED")
        if seed is None and env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ParseError("DSTK_SEED must be an integer") from None
        inputs, results, outputs = args.fn(args, args.tol)
        for path, system in outputs:
            write_system(path, system)
    except DstkError as exc:
        if args.out == "json":
            _emit({"command": args.command, "error": {"code": exc.code, "message": str(exc)}}, "json")
        else:
            print(f"error [{exc.code}]: {exc}", file=_sys.stderr)
        return 1 if isinstance(exc, ParseError) else 2
    if outputs:
        paths = [path for path, _ in outputs]
        results["written"] = paths[0] if len(paths) == 1 else paths
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "tolerances": {"tol": args.tol},
        "seed": seed,
    }
    _emit(report, args.out)
    return 0


def main() -> None:
    _sys.exit(run())
