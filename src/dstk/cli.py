"""Command-line front end ``dstk``.

Reads and writes descriptor systems in a versioned text format, dispatches
analysis / factorization / solver subcommands, and emits human-readable or
JSON reports.  Exit codes: 0 success, 1 usage or input-format error,
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
from .system import DescriptorSystem, TimeDomain, make_system

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
    with open(path, "w") as fh:
        fh.write(format_system(sys))


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
# subcommands


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
    }


def _cmd_eval(args, tol):
    g = read_system(args.system)
    try:
        lam = complex(*map(_finite_float, args.at.split(",")))
    except (TypeError, ValueError):
        raise ParseError(f"bad --at value {args.at!r} (use RE,IM)") from None
    from .system import eval_tfm

    val = eval_tfm(g, lam)
    return [args.system], {"lambda": _jc(lam), "value": _cmatrix(val)}


def _cmd_minreal(args, tol):
    g = read_system(args.system)
    gm = analysis.minreal(g, tol=tol)
    write_system(args.output, gm)
    return [args.system], {"order_in": g.n, "order_out": gm.n, "written": args.output}


def _cmd_connect(args, tol):
    g1 = read_system(args.system1)
    g2 = read_system(args.system2)
    op = {
        "series": ops.series,
        "parallel": ops.parallel,
        "rowcat": ops.concat_row,
        "colcat": ops.concat_col,
        "diag": ops.diag_stack,
    }[args.kind]
    gc = op(g1, g2)
    write_system(args.output, gc)
    return [args.system1, args.system2], {"kind": args.kind, "order": gc.n, "written": args.output}


def _cmd_decompose(args, tol):
    g = read_system(args.system)
    region = _parse_region(args.region, g.domain)
    pair = factor.additive_decompose(g, region, improper_to_bad=args.improper_to_bad, tol=tol)
    write_system(args.out_good, pair.first)
    write_system(args.out_bad, pair.second)
    return [args.system], {
        "good_order": pair.first.n,
        "bad_order": pair.second.n,
        "written": [args.out_good, args.out_bad],
    }


def _cmd_cf(args, tol):
    g = read_system(args.system)
    region = _parse_region(args.region, g.domain)
    fn = factor.lcf if args.side == "left" else factor.rcf
    pair = fn(g, region, tol=tol)
    write_system(args.out_n, pair.first)
    write_system(args.out_m, pair.second)
    return [args.system], {
        "side": args.side,
        "numerator_order": pair.first.n,
        "denominator_order": pair.second.n,
        "written": [args.out_n, args.out_m],
    }


def _cmd_iofac(args, tol):
    g = read_system(args.system)
    pair = factor.inner_outer(g, tol=tol)
    write_system(args.out_inner, pair.first)
    write_system(args.out_outer, pair.second)
    return [args.system], {
        "inner_columns": pair.inner_columns,
        "inner_order": pair.first.n,
        "outer_order": pair.second.n,
        "written": [args.out_inner, args.out_outer],
    }


def _cmd_nullspace(args, tol):
    g = read_system(args.system)
    fn = solve.left_nullspace if args.side == "left" else solve.right_nullspace
    basis = fn(g, tol=tol)
    write_system(args.output, basis)
    shape = {"rows": basis.p, "cols": basis.m}
    return [args.system], {"side": args.side, "basis_shape": shape, "order": basis.n, "written": args.output}


def _cmd_solve(args, tol):
    G = read_system(args.system_g)
    F = read_system(args.system_f)
    res = solve.solve_right(G, F, tol=tol)
    write_system(args.output, res.particular)
    return [args.system_g, args.system_f], {
        "solution_order": res.particular.n,
        "null_basis_cols": res.null_basis.m,
        "written": args.output,
    }


def _cmd_match(args, tol):
    G = read_system(args.system_g)
    F = read_system(args.system_f)
    X, parts = solve.l2_model_match(G, F, tol=tol)
    write_system(args.output, X)
    return [args.system_g, args.system_f], {
        "solution_order": X.n,
        "error_norm": parts.error_norm,
        "written": args.output,
    }


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
    }


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

    p = sub.add_parser("info", parents=[common], help="poles/zeros/rank/degree/minimality report")
    p.add_argument("system")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("eval", parents=[common], help="evaluate the TFM at a complex point")
    p.add_argument("system")
    p.add_argument("--at", required=True, metavar="RE,IM")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("minreal", parents=[common], help="minimal realization")
    p.add_argument("system")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_minreal)

    p = sub.add_parser("connect", parents=[common], help="couple two systems")
    p.add_argument("kind", choices=["series", "parallel", "rowcat", "colcat", "diag"])
    p.add_argument("system1")
    p.add_argument("system2")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_connect)

    p = sub.add_parser("decompose", parents=[common], help="additive good/bad decomposition")
    p.add_argument("system")
    p.add_argument("--region", default="stable")
    p.add_argument("--improper-to-bad", action="store_true")
    p.add_argument("--out-good", required=True)
    p.add_argument("--out-bad", required=True)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("cf", parents=[common], help="coprime factorization")
    p.add_argument("side", choices=["left", "right"])
    p.add_argument("system")
    p.add_argument("--region", default="stable")
    p.add_argument("--out-n", required=True)
    p.add_argument("--out-m", required=True)
    p.set_defaults(fn=_cmd_cf)

    p = sub.add_parser("iofac", parents=[common], help="inner-outer factorization")
    p.add_argument("system")
    p.add_argument("--out-inner", required=True)
    p.add_argument("--out-outer", required=True)
    p.set_defaults(fn=_cmd_iofac)

    p = sub.add_parser("nullspace", parents=[common], help="rational nullspace basis")
    p.add_argument("side", choices=["left", "right"])
    p.add_argument("system")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_nullspace)

    p = sub.add_parser("solve", parents=[common], help="solve G X = F")
    p.add_argument("system_g")
    p.add_argument("system_f")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("match", parents=[common], help="L2 model matching min ||F - G X||")
    p.add_argument("system_g")
    p.add_argument("system_f")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_match)

    p = sub.add_parser("klf", parents=[common], help="Kronecker-like structure of a raw pencil M - lambda*N")
    p.add_argument("matrix_m")
    p.add_argument("matrix_n")
    p.set_defaults(fn=_cmd_klf)
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
        seed = args.seed
        env = os.environ.get("DSTK_SEED")
        if seed is None and env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ParseError("DSTK_SEED must be an integer") from None
        inputs, results = args.fn(args, args.tol)
    except DstkError as exc:
        if args.out == "json":
            _emit({"command": args.command, "error": {"code": exc.code, "message": str(exc)}}, "json")
        else:
            print(f"error [{exc.code}]: {exc}", file=_sys.stderr)
        return 1 if isinstance(exc, ParseError) else 2
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
