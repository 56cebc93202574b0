"""Batch command-line surface.

Reads states, matrices, and windows from JSON (windows also inline as
"lo:hi,lo:hi"), runs one operation per invocation, and writes CSV/JSON
outputs atomically.  Exit codes: 0 success, 1 I/O or parse error or not
enough memory, 2 physics-level validation failure or a result that double
precision cannot resolve; diagnostics go to stderr as JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np
import orjson

from . import distribution, observable, spectral
from .errors import PhaseObsError, PrecisionError, ValidationError
from .hardy import (TWO_PI, HardyState, PhaseWindow, _complex_pairs, _pair_floats,
                    normalize)
from .observable import PhaseMatrix

BUILTIN_KINDS = ("canonical", "trivial", "exponential")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class RunConfig:
    """Validated per-invocation settings shared by the command handlers."""

    grid: int = 256
    dim: int | None = None
    seed: int = 0
    samples: int = 0
    out: str | None = None
    truncations: list[int] = field(default_factory=list)
    q_sweep: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.grid < 2:
            raise PhaseObsError("--grid must be >= 2")
        if self.dim is not None and self.dim < 1:
            raise PhaseObsError("--dim must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise PhaseObsError("--seed must be a 64-bit unsigned integer")
        if self.samples < 0:
            raise PhaseObsError("--samples must be non-negative")


def _dumps(obj, pretty: bool = False) -> str:
    """One JSON document and a newline.  Every double is written in its
    shortest round-trip form; numpy scalars and arrays are accepted."""
    option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    if pretty:
        option |= orjson.OPT_INDENT_2
    return orjson.dumps(obj, option=option).decode()


def _diag(code: str, message: str, detail=None) -> None:
    payload = {"code": code, "message": message, "detail": detail}
    sys.stderr.write(_dumps(payload))


def _load_json(path: str) -> dict:
    """Strict UTF-8 JSON: NaN, Infinity, an overflowing literal such as
    1e400, a byte order mark or invalid UTF-8 raise orjson.JSONDecodeError,
    a ValueError."""
    with open(path, "rb") as fh:
        return orjson.loads(fh.read())


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".phaseobs-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _fmt(x) -> str:
    """Shortest decimal that round-trips the binary double."""
    return repr(float(x))


def _csv(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(str(x) if isinstance(x, (int, str)) else _fmt(x) for x in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def _matrix_spec(args) -> dict:
    """Resolve --matrix into a matrix JSON dict (file path or builtin name)."""
    arg = args.matrix
    if arg in BUILTIN_KINDS:
        if args.dim is None:
            raise PhaseObsError(f"builtin matrix {arg!r} requires --dim")
        spec = {"kind": arg, "dim": args.dim}
        if arg == "exponential":
            if args.q is None:
                raise PhaseObsError("exponential matrix requires --q")
            spec["q"] = args.q
        return spec
    return _load_json(arg)


def _load_matrix(args) -> PhaseMatrix:
    return PhaseMatrix.from_dict(_matrix_spec(args))


def _load_state(path: str) -> HardyState:
    return normalize(_complex_pairs(_load_json(path)["coeffs"], "coeffs"))


def _load_window(arg: str) -> PhaseWindow:
    if ":" in arg and not os.path.exists(arg):
        arcs = []
        for piece in arg.split(","):
            lo, _, hi = piece.partition(":")
            arcs.append((float(lo), float(hi)))
        return PhaseWindow(tuple(arcs))
    return PhaseWindow.from_dict(_load_json(arg))


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


# ---------------------------------------------------------------- handlers


def cmd_validate(args, cfg: RunConfig) -> int:
    spec = _matrix_spec(args)
    if spec.get("kind") == "explicit":
        # validate the raw entries: building a PhaseMatrix would raise instead
        report = observable.validate(_complex_pairs(spec["entries"], "entries"))
    else:
        report = observable.validate(PhaseMatrix.from_dict(spec).entries)
    _emit(_dumps(report.to_dict(), pretty=True), cfg.out)
    if not report.valid:
        _diag("invalid-matrix", "phase matrix validation failed", report.to_dict())
        return 2
    return 0


def cmd_density(args, cfg: RunConfig) -> int:
    matrix = _load_matrix(args)
    state = _load_state(args.state)
    values = distribution.density_grid(matrix, state, cfg.grid)
    rows = [(TWO_PI * j / cfg.grid, values[j]) for j in range(cfg.grid)]
    _emit(_csv("theta,value", rows), cfg.out)
    return 0


def cmd_cdf(args, cfg: RunConfig) -> int:
    matrix = _load_matrix(args)
    state = _load_state(args.state)
    thetas = TWO_PI * np.arange(cfg.grid + 1) / cfg.grid
    thetas[-1] = TWO_PI
    values = distribution.exact_cdf(matrix, state, thetas)
    _emit(_csv("theta,value", zip(thetas, values)), cfg.out)
    return 0


def cmd_window_prob(args, cfg: RunConfig) -> int:
    matrix = _load_matrix(args)
    state = _load_state(args.state)
    window = _load_window(args.window)
    prob = distribution.window_probability(matrix, state, window)
    payload = {"probability": prob, "window_measure": window.measure}
    _emit(_dumps(payload, pretty=True), cfg.out)
    return 0


def cmd_kraus(args, cfg: RunConfig) -> int:
    family = observable.kraus_decompose(_load_matrix(args))
    # the rows' float view: orjson writes the bytes of family.to_dict()
    # without the nested lists being built
    _emit(_dumps({"rows": _pair_floats(family.z)}), cfg.out)
    return 0


def cmd_kernel_check(args, cfg: RunConfig) -> int:
    matrix = _load_matrix(args)
    state = _load_state(args.state)
    nonzero = np.nonzero(state.coeffs)[0]
    s = int(nonzero[-1]) if nonzero.size else 0
    if s >= matrix.dim:
        raise PhaseObsError("state band limit exceeds matrix dimension")
    thetas = TWO_PI * np.arange(8) / 8
    sandwiches = distribution.kernel_apply(matrix, s, state, thetas, cfg.grid)
    directs = distribution.density(matrix, state, state, thetas).real
    rows = [(theta, direct, sandwich, abs(direct - sandwich))
            for theta, direct, sandwich in zip(thetas, directs, sandwiches)]
    _emit(_csv("theta,density,kernel,abs_err", rows), cfg.out)
    return 0


def cmd_moment(args, cfg: RunConfig) -> int:
    matrix = _load_matrix(args)
    spectrum = spectral.moment_spectrum(matrix)
    rows = [(i, val) for i, val in enumerate(spectrum)]
    _emit(_csv("index,eigenvalue", rows), cfg.out)
    return 0


def _localization_fields(loc: spectral._Localization) -> dict:
    """lambda_max, gap = 1 - lambda_max as a decimal string, and the method.

    A dense lambda_max stays a double.  A prolate one is written as the
    exact decimal 1 - gap, with gap rounded to 17 significant digits, so it
    reads below 1 and adds up with gap to exactly 1.
    """
    if loc.method == "dense":
        fields = {"lambda_max": loc.lam, "gap": _fmt(loc.gap)}
    else:
        from decimal import Context, Decimal

        from mpmath import nstr

        gap = nstr(loc.gap, 17)
        exponent = Decimal(gap).as_tuple().exponent
        lam = Context(prec=1 - exponent).subtract(1, Decimal(gap))
        fields = {"lambda_max": str(lam), "gap": gap}
    return {**fields, "method": loc.method}


def cmd_localize(args, cfg: RunConfig) -> int:
    loc = spectral._localization(_load_matrix(args), _load_window(args.window))
    payload = {**_localization_fields(loc), "maximizer": loc.maximizer.to_dict()}
    _emit(_dumps(payload, pretty=True), cfg.out)
    return 0


def cmd_sweep(args, cfg: RunConfig) -> int:
    window = _load_window(args.window)
    if cfg.truncations and cfg.q_sweep:
        raise PhaseObsError("use either --truncations or --q-sweep, not both")
    if cfg.truncations:
        # --matrix is resolved once: a builtin is rebuilt at each size, an
        # explicit matrix is cut from its one parsed copy
        spec = _matrix_spec(args)
        if spec.get("kind") in BUILTIN_KINDS:
            cases = ((dim, PhaseMatrix.from_dict({**spec, "dim": dim}))
                     for dim in cfg.truncations)
        else:
            full = PhaseMatrix.from_dict(spec)
            cases = ((dim, full.truncated(dim)) for dim in cfg.truncations)
        header = "S"
    elif cfg.q_sweep:
        if args.matrix != "exponential":
            raise PhaseObsError("--q-sweep builds exponential matrices; "
                                "it requires --matrix exponential")
        if cfg.dim is None:
            raise PhaseObsError("--q-sweep requires --dim")
        cases = ((q, PhaseMatrix.exponential(q, cfg.dim)) for q in cfg.q_sweep)
        header = "q"
    else:
        raise PhaseObsError("sweep requires --truncations or --q-sweep")
    rows = [(param, _localization_fields(
                 spectral._localization(mat, window, maximizer=False))["lambda_max"])
            for param, mat in cases]
    _emit(_csv(f"{header},lambda_max", rows), cfg.out)
    return 0


def cmd_sample(args, cfg: RunConfig) -> int:
    matrix = _load_matrix(args)
    state = _load_state(args.state)
    draws = distribution.sample(matrix, state, cfg.samples, cfg.seed)
    _emit("".join(_fmt(x) + "\n" for x in draws), cfg.out)
    return 0


# ------------------------------------------------------------------ parser


def _add_common(sub, matrix=True, state=False, window=False):
    if matrix:
        sub.add_argument("--matrix", required=True,
                         help="matrix JSON file, or builtin name with --dim/--q")
    if state:
        sub.add_argument("--state", required=True, help="state JSON file")
    if window:
        sub.add_argument("--window", required=True,
                         help="window JSON file or inline lo:hi,lo:hi")
    sub.add_argument("--dim", type=int, default=None)
    sub.add_argument("--q", type=float, default=None)
    sub.add_argument("--out", default=None, help="output path (atomic write)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="phaseobs", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    handlers = {
        "validate": (cmd_validate, dict()),
        "density": (cmd_density, dict(state=True)),
        "cdf": (cmd_cdf, dict(state=True)),
        "window-prob": (cmd_window_prob, dict(state=True, window=True)),
        "kraus": (cmd_kraus, dict()),
        "kernel-check": (cmd_kernel_check, dict(state=True)),
        "moment": (cmd_moment, dict()),
        "localize": (cmd_localize, dict(window=True)),
        "sweep": (cmd_sweep, dict(window=True)),
        "sample": (cmd_sample, dict(state=True)),
    }
    for name, (handler, kinds) in handlers.items():
        sub = commands.add_parser(name)
        _add_common(sub, **kinds)
        if name in ("density", "cdf", "kernel-check"):
            sub.add_argument("--grid", type=int,
                             default=4096 if name == "kernel-check" else 256)
        if name == "sweep":
            sub.add_argument("--truncations", default="")
            sub.add_argument("--q-sweep", dest="q_sweep", default="")
        if name == "sample":
            sub.add_argument("--samples", type=int, required=True)
            sub.add_argument("--seed", type=int, default=0)
        sub.set_defaults(handler=handler)
    return parser


def _config_from(args) -> RunConfig:
    return RunConfig(
        grid=getattr(args, "grid", 256),
        dim=args.dim,
        seed=getattr(args, "seed", 0),
        samples=getattr(args, "samples", 0),
        out=args.out,
        truncations=_parse_int_list(getattr(args, "truncations", "")),
        q_sweep=_parse_float_list(getattr(args, "q_sweep", "")),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _diag("usage", str(exc))
        return 1
    try:
        cfg = _config_from(args)
        return args.handler(args, cfg)
    except ValidationError as exc:
        _diag("validation", str(exc))
        return 2
    except PrecisionError as exc:
        _diag("precision", str(exc))
        return 2
    except MemoryError as exc:
        _diag("memory", "not enough memory for this request", str(exc) or None)
        return 1
    except (PhaseObsError, OSError, KeyError, TypeError, ValueError) as exc:
        _diag("error", str(exc))
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
