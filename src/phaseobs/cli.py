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
import stat
import sys
import tempfile

# One BLAS thread unless the caller sets a count: LAPACK's last bits (kraus,
# localize, sweep) move with the thread count, and outputs must not.  Set
# before observable loads numpy, which reads them once.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

# The import order is heap layout.  observable is compiled before numpy loads
# (its parser's 1.2 MB then does not sit on top of numpy's heap) and orjson
# loads after observable and hardy: the other way round, `validate` and
# `kraus`, which load no other layer, peaked 0.1 to 0.35 MB higher
from . import observable
import numpy as np

from .errors import PhaseObsError, PrecisionError, ValidationError
from .hardy import (BLOCK, TWO_PI, HardyState, PhaseWindow, _blocks, _complex_pairs, _member,
                    _pair_floats, normalize)
from .observable import BUILTIN_KINDS, PhaseMatrix
import orjson


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # a long option that takes a value (in full or a unique prefix) takes
        # the next token, which argparse would read as an option if it were
        # "-inf" or "-1:2": `--q -inf` goes on as `--q=-inf`
        options = self._option_string_actions
        tokens, joined = iter(args), []
        for token in tokens:
            names = [token] if token in options else [n for n in options if n.startswith(token)]
            if len(names) == 1 and options[names[0]].nargs is None:
                value = next(tokens, None)
                token = token if value is None else f"{names[0]}={value}"
            joined.append(token)
        return super().parse_known_args(joined, namespace)


def _dumps(obj, pretty: bool = False) -> bytes:
    """One JSON document and a newline, as UTF-8 bytes.  Every double is
    written in its shortest round-trip form; numpy scalars and arrays are
    accepted."""
    option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    if pretty:
        option |= orjson.OPT_INDENT_2
    return orjson.dumps(obj, option=option)


def _diag(code: str, message: str, detail=None) -> None:
    payload = {"code": code, "message": message, "detail": detail}
    sys.stderr.write(_dumps(payload).decode())


def _read(path: str):
    """A file's bytes: a regular file of at least `_CACHE_MIN_BYTES` in an
    anonymous memory mapping, anything else (or a file that changes size
    during the read) as a bytes object.  Unlike a freed bytes object, a
    freed mapping leaves glibc's mmap threshold as it was, so the S x S
    arrays after the load are mapped afresh rather than carved from a heap
    that keeps its pages: a 12 MB bytes object left `kraus` 0.9 MB higher
    at its peak on a 512 x 512 matrix."""
    with open(path, "rb", buffering=0) as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size >= max(_CACHE_MIN_BYTES, 1):
            import mmap

            data = mmap.mmap(-1, info.st_size)
            with memoryview(data) as view:
                done = 0
                while done < len(view) and (count := fh.readinto(view[done:])):
                    done += count
            if done == len(data) and not fh.read(1):
                return data
            fh.seek(0)
        return fh.read()


# Files below this size are read into a bytes object and skip the matrix
# cache: a hit beats the decode from 0.1 MiB, and from 1 MiB one hit repays
# what a miss adds (hashing, writing the entry).  See README,
# "Explicit-matrix cache".
_CACHE_MIN_BYTES = 1 << 20


def _atomic_write(path: str, chunks) -> None:
    """Write the byte chunks to a temporary file beside `path`, then rename
    it over `path`; the file gets the mode a plain open would give it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".phaseobs-")
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(chunks, out: str | None) -> None:
    """Write an iterable of byte chunks to `out`, or to stdout."""
    if out:
        _atomic_write(out, chunks)
    else:
        for chunk in chunks:
            sys.stdout.write(chunk.decode())


def _json_rows(rows: np.ndarray):
    """The bytes of `_dumps({"rows": rows})` for an array `rows`, as chunks of
    one row each: orjson writes each row's float view without nested lists,
    and no buffer holds them all."""
    yield b'{"rows":['
    for i, row in enumerate(rows):
        if i:
            yield b","
        yield orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)
    yield b"]}\n"


_AS_LINES = bytes.maketrans(b",]", b"\n\n")


def _lines(header: str | None, *columns):
    """The bytes of a CSV file, BLOCK rows at a time: the header line, if
    any, and then one line per row, its cells joined by commas and spelled
    by `_spell`."""
    if header is not None:
        yield header.encode() + b"\n"
    columns = [np.ascontiguousarray(column) for column in columns]
    for part in _blocks(len(columns[0]), BLOCK):
        texts = [_spell(column[part]) for column in columns]
        if len(texts) == 1:
            yield texts[0]
        else:
            cells = (text.split(b"\n")[:-1] for text in texts)
            yield b"\n".join(map(b",".join, zip(*cells))) + b"\n"


def _spell(arr: np.ndarray) -> bytes:
    """The cells of a 1-D array, a line each: strings as they are, integers
    as str spells them, doubles as repr does.  A numeric array is one orjson
    pass: one `translate` makes orjson's "[a,b,c]" lines (a flat array has
    brackets and commas nowhere else), with no bytes object per cell, and
    only the cells orjson spells otherwise are replaced, by repr: nonzero
    |x| < 1e-4 and |x| >= 1e16 ("0.00001" and "1e16" against "1e-05" and
    "1e+16"), and nan and +-inf (null)."""
    if arr.dtype.kind == "U":
        return ("\n".join(arr.tolist()) + "\n").encode()
    text = orjson.dumps(arr, option=orjson.OPT_SERIALIZE_NUMPY).translate(_AS_LINES, b"[")
    if arr.dtype.kind != "f":
        return text
    mag = np.abs(arr)
    # ~(mag < 1e16) holds for nan as well
    flagged = np.flatnonzero(~(mag < 1e16) | ((mag < 1e-4) & (arr != 0)))
    if not flagged.size:
        return text
    ends = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n"))
    view = memoryview(text)
    parts, done = [], 0
    for i in flagged:
        start = ends[i - 1] + 1 if i else 0
        parts += [view[done:start], repr(float(arr[i])).encode()]
        done = ends[i]
    parts.append(view[done:])
    return b"".join(parts)


def _matrix_spec(args) -> dict:
    """Resolve --matrix into a matrix JSON dict (file path or builtin name);
    --dim and --q go with a builtin name alone."""
    arg = args.matrix
    if arg in BUILTIN_KINDS:
        if args.dim is None:
            raise PhaseObsError(f"builtin matrix {arg!r} requires --dim")
        if arg == "exponential" and args.q is None:
            raise PhaseObsError("exponential matrix requires --q")
        spec = {"kind": arg, "dim": args.dim}
        if args.q is not None:
            spec["q"] = args.q
        return spec
    for option, value in (("--dim", args.dim), ("--q", args.q)):
        if value is not None:
            raise PhaseObsError(f"{option} is for builtin matrices; a matrix file sets its own")
    from . import _matrixfile

    return _matrixfile._load_json(arg)


def _load_matrix(args) -> PhaseMatrix:
    return PhaseMatrix.from_dict(_matrix_spec(args))


def _load_state(path: str) -> HardyState:
    doc = orjson.loads(memoryview(_read(path)))
    return normalize(_complex_pairs(_member(doc, "coeffs", "state"), "coeffs"))


def _load_window(arg: str) -> PhaseWindow:
    if ":" in arg and not os.path.exists(arg):
        arcs = []
        for piece in arg.split(","):
            lo, _, hi = piece.partition(":")
            arcs.append((float(lo), float(hi)))
        return PhaseWindow(tuple(arcs))
    return PhaseWindow.from_dict(orjson.loads(memoryview(_read(arg))))


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


# ---------------------------------------------------------------- handlers
#
# The handlers import `distribution` and `spectral` themselves, so that a
# child process compiles and runs only the layers its command uses.


def cmd_validate(args) -> int:
    spec = _matrix_spec(args)
    if observable._kind(spec) == "explicit":
        # validate the raw entries: building a PhaseMatrix would raise instead
        report = observable.validate(observable._explicit_entries(spec))
    else:
        report = observable.validate(PhaseMatrix.from_dict(spec).entries)
    _emit([_dumps(report.to_dict(), pretty=True)], args.out)
    if not report.valid:
        _diag("invalid-matrix", "phase matrix validation failed", report.to_dict())
        return 2
    return 0


def _angles(count: int, grid: int) -> np.ndarray:
    """TWO_PI * np.arange(count) / grid, built in place: no integer array
    and no second float array."""
    thetas = np.arange(count, dtype=float)
    thetas *= TWO_PI
    thetas /= grid
    return thetas


def cmd_density(args) -> int:
    from . import distribution

    matrix = _load_matrix(args)
    state = _load_state(args.state)
    values = distribution.density_grid(matrix, state, args.grid)
    thetas = _angles(args.grid, args.grid)
    _emit(_lines("theta,value", thetas, values), args.out)
    return 0


def cmd_cdf(args) -> int:
    from . import distribution

    matrix = _load_matrix(args)
    state = _load_state(args.state)
    thetas = _angles(args.grid + 1, args.grid)
    thetas[-1] = TWO_PI
    values = distribution.exact_cdf(matrix, state, thetas)
    _emit(_lines("theta,value", thetas, values), args.out)
    return 0


def cmd_window_prob(args) -> int:
    from . import distribution

    matrix = _load_matrix(args)
    state = _load_state(args.state)
    window = _load_window(args.window)
    prob = distribution.window_probability(matrix, state, window)
    payload = {"probability": prob, "window_measure": window.measure}
    _emit([_dumps(payload, pretty=True)], args.out)
    return 0


def cmd_kraus(args) -> int:
    family = observable.kraus_decompose(_load_matrix(args))
    _emit(_json_rows(_pair_floats(family.z)), args.out)
    return 0


def cmd_kernel_check(args) -> int:
    from . import distribution

    matrix = _load_matrix(args)
    state = _load_state(args.state)
    nonzero = np.nonzero(state.coeffs)[0]
    s = int(nonzero[-1]) if nonzero.size else 0
    if s >= matrix.dim:
        raise PhaseObsError("state band limit exceeds matrix dimension")
    thetas = TWO_PI * np.arange(8) / 8
    sandwiches = distribution.kernel_apply(matrix, s, state, thetas)
    directs = distribution.density_grid(matrix, state, 8)
    _emit(_lines("theta,density,kernel,abs_err", thetas, directs, sandwiches,
                 np.abs(directs - sandwiches)), args.out)
    return 0


def cmd_moment(args) -> int:
    from . import spectral

    matrix = _load_matrix(args)
    spectrum = spectral.moment_spectrum(matrix)
    _emit(_lines("index,eigenvalue", np.arange(spectrum.size), spectrum), args.out)
    return 0


def _localization_fields(loc) -> dict:
    """lambda_max, gap = 1 - lambda_max as a decimal string, and the method
    of a `spectral.Localization`.

    A dense lambda_max stays a double.  A prolate one is written as the
    exact decimal 1 - gap, with gap rounded to 17 significant digits, so it
    reads below 1 and adds up with gap to exactly 1.
    """
    if loc.method == "dense":
        fields = {"lambda_max": loc.lam, "gap": repr(loc.gap)}
    else:
        from decimal import Context, Decimal

        from mpmath import nstr

        gap = nstr(loc.gap, 17)
        exponent = Decimal(gap).as_tuple().exponent
        lam = Context(prec=1 - exponent).subtract(1, Decimal(gap))
        fields = {"lambda_max": str(lam), "gap": gap}
    return {**fields, "method": loc.method}


def cmd_localize(args) -> int:
    from . import spectral

    loc = spectral.localization(_load_matrix(args), _load_window(args.window))
    payload = {**_localization_fields(loc), "maximizer": loc.maximizer.to_dict()}
    _emit([_dumps(payload, pretty=True)], args.out)
    return 0


def cmd_sweep(args) -> int:
    from . import spectral

    truncations = _parse_int_list(args.truncations)
    q_sweep = _parse_float_list(args.q_sweep)
    window = _load_window(args.window)
    if truncations and q_sweep:
        raise PhaseObsError("use either --truncations or --q-sweep, not both")
    if truncations:
        full = _load_matrix(args)
        params, header = truncations, "S"
        matrices = (full.truncated(dim) for dim in truncations)
    elif q_sweep:
        if args.matrix != "exponential":
            raise PhaseObsError("--q-sweep builds exponential matrices; "
                                "it requires --matrix exponential")
        if args.dim is None:
            raise PhaseObsError("--q-sweep requires --dim")
        params, header = q_sweep, "q"
        matrices = (PhaseMatrix.exponential(q, args.dim) for q in q_sweep)
    else:
        raise PhaseObsError("sweep requires --truncations or --q-sweep")
    lams = [_localization_fields(spectral.localization(mat, window, maximizer=False))
            ["lambda_max"] for mat in matrices]
    # a prolate lambda_max is a decimal string already; a dense one is a double
    column = [lam if isinstance(lam, str) else repr(float(lam)) for lam in lams]
    _emit(_lines(f"{header},lambda_max", params, column), args.out)
    return 0


def cmd_sample(args) -> int:
    from . import distribution

    matrix = _load_matrix(args)
    state = _load_state(args.state)
    draws = distribution.sample(matrix, state, args.samples, args.seed)
    _emit(_lines(None, draws), args.out)
    return 0


# ------------------------------------------------------------------ parser


def _add_common(sub, state=False, window=False):
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


def _build_parser(argv: list[str]) -> _Parser:
    """The parser of `argv`.  When argv[0] names a command it gets only that
    command's sub-parser; help, no command and an unknown command get them
    all.  Each sub-parser's usage, help and messages are the same either
    way."""
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
    if argv and argv[0] in handlers:
        handlers = {argv[0]: handlers[argv[0]]}
    for name, (handler, kinds) in handlers.items():
        sub = commands.add_parser(name)
        _add_common(sub, **kinds)
        if name in ("density", "cdf"):
            sub.add_argument("--grid", type=int, default=256)
        if name == "sweep":
            sub.add_argument("--truncations", default="")
            sub.add_argument("--q-sweep", dest="q_sweep", default="")
        if name == "sample":
            sub.add_argument("--samples", type=int, required=True)
            sub.add_argument("--seed", type=int, default=0)
        sub.set_defaults(handler=handler)
    return parser


def _check_ranges(args) -> None:
    """Range checks of the numeric options a command has, before any input
    is read."""
    if "grid" in args and args.grid < 2:
        raise PhaseObsError("--grid must be >= 2")
    if args.dim is not None and args.dim < 1:
        raise PhaseObsError("--dim must be >= 1")
    if "seed" in args and not 0 <= args.seed < 2**64:
        raise PhaseObsError("--seed must be a 64-bit unsigned integer")
    if "samples" in args and args.samples < 0:
        raise PhaseObsError("--samples must be non-negative")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _diag("usage", str(exc))
        return 1
    try:
        _check_ranges(args)
        return args.handler(args)
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
    """Run `main` on the process's arguments and leave without interpreter
    teardown: once stdout and stderr are flushed, nothing is left to write
    (outputs are closed files, and phaseobs registers no atexit handler), and
    freeing numpy's modules object by object costs a child 20-30 ms.  If
    a flush raises, the process leaves by `sys.exit` instead."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    # `python -m phaseobs.cli` runs this file as __main__; under its package
    # name too, _matrixfile's `from . import cli` finds it rather than
    # running a second copy
    sys.modules["phaseobs.cli"] = sys.modules[__name__]
    main_entry()
