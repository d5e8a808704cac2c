"""Command-line surface.

Every command prints a deterministic, machine-readable result: identical
invocations (including seeds) produce byte-identical output.  ``--format``
selects text, a single JSON object with a schema_version field, or RFC-4180
CSV with a header row and LF line endings.  Exit codes: 0 success/PASS,
1 verification FAIL, 2 invalid parameters, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from fractions import Fraction
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii

from . import __version__, density, modcount, render, simulate
from . import coding as coding_mod
from .approx import ApproxReal, default_policy
from .errors import BudgetExceededError, NonconvergentError, ParameterError, VerificationError

SCHEMA_VERSION = 1


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"cannot parse integer list {text!r}") from exc


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse rational {text!r}") from exc


def _ratio_payload(x: Fraction, digits: int) -> dict:
    return {
        "numerator": render.render_integer(x.numerator),
        "denominator": render.render_integer(x.denominator),
        "decimal": render.render_ratio(x, digits),
    }


def _approx_payload(x: ApproxReal) -> dict:
    return {"value": x.value, "abs_error": x.abs_error}


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# the leaves of exactly these types are written inside the container loops,
# with no call of _write_json per value; the rest, subclasses too, go through it
_JSON_LEAVES = {str: encode_basestring_ascii, int: int.__repr__, float: _json_float}


def _write_json(value, out: list[str], indent: str) -> None:
    """Append the text ``json.dumps(value, sort_keys=True, indent=2)`` gives ``value``.

    ``indent`` is the indentation of the line ``value`` starts on.  The types
    are tested in ``json``'s own order, and the leaves are formatted by the
    functions ``json``'s encoder calls, so the bytes are the same; dict keys
    must be strings.  ``json.dumps`` with an indent runs its pure-Python
    encoder, which this walk outpaces.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[\n" + inner
        for item in value:
            leaf = _JSON_LEAVES.get(type(item))
            if leaf is None:
                out.append(separator)
                _write_json(item, out, inner)
            else:
                out.append(separator + leaf(item))
            separator = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            leaf = _JSON_LEAVES.get(type(item))
            if leaf is None:
                out.append(separator + encode_basestring_ascii(key) + ": ")
                _write_json(item, out, inner)
            else:
                out.append(separator + encode_basestring_ascii(key) + ": " + leaf(item))
            separator = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte (see ``_write_json``)."""
    out: list[str] = []
    _write_json(value, out, "")
    return "".join(out)


def _emit(args, payload: dict, text_lines: list[str], csv_rows: list[list] | None = None) -> str:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        policy = default_policy()
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "tool": "chainring",
            "version": __version__,
            "command": args.command_path,
            "params": {
                key: (str(value) if isinstance(value, Fraction) else value)
                for key, value in sorted(vars(args).items())
                if key not in ("func", "command_path", "format") and value is not None
            },
            "truncation_policy": {
                "max_index": policy.max_index,
                "target_tail": policy.target_tail,
            },
            "result": payload,
        }
        return _json_text(envelope) + "\n"
    if fmt == "csv":
        if csv_rows is None:
            raise ParameterError(f"no CSV representation for {args.command_path!r}")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(csv_rows)
        return buffer.getvalue()
    return "\n".join(text_lines) + "\n"


def _ring(args) -> modcount.ChainRingSpec:
    return modcount.ChainRingSpec(q=args.q, s=args.s)


def _concrete(args) -> simulate.ConcreteRing:
    return simulate.ConcreteRing(p=args.p, s=args.s)


def _model(args) -> coding_mod.WeightModel:
    return coding_mod.make_weight_model(args.metric, _concrete(args))


# ---------------------------------------------------------------- handlers
#
# A handler takes the parsed arguments and returns (exit status, output).
# Subjects that differ only in the library call share a factory; the rest
# have an output shape of their own.


def _count(compute):
    """Handler printing the exact integer ``compute(args)``."""

    def handler(args) -> tuple[int, str]:
        text = render.render_integer(compute(args))
        return 0, _emit(args, {"count": text}, [text])

    return handler


def _ratio(compute):
    """Handler printing the exact rational ``compute(args)`` and its decimal."""

    def handler(args) -> tuple[int, str]:
        payload = _ratio_payload(compute(args), args.precision)
        text = f"{payload['numerator']}/{payload['denominator']} = {payload['decimal']}"
        return 0, _emit(args, payload, [text])

    return handler


def _certified(compute):
    """Handler printing the certified real ``compute(args)`` with its error bound."""

    def handler(args) -> tuple[int, str]:
        value = compute(args)
        text = f"{value.value:.10f} ± {value.abs_error:.3g}"
        return 0, _emit(args, _approx_payload(value), [text])

    return handler


def _gv(args) -> Fraction:
    model = _model(args)  # the model's errors come first
    return coding_mod.gv_lower_bound(args.n, _parse_fraction(args.d), model)


def _bounds(args) -> tuple[int, str]:
    result = density.density_bounds(_ring(args))
    parts = (
        ("lower", "lower", result.lower),
        ("value", "exact", result.value),
        ("upper", "upper", result.upper),
    )
    payload = {key: _approx_payload(x) for key, _, x in parts}
    lines = [f"{label} {x.value:.10f} ± {x.abs_error:.3g}" for _, label, x in parts]
    return 0, _emit(args, payload, lines)


def _table1(args) -> tuple[int, str]:
    csv_rows = [["s", "q", "lower", "exact", "upper"]]
    payload_rows = []
    lines = ["s q lower exact upper"]
    for s, q, result in density.table1_rows():
        csv_row = [s, q] + [
            render.render_ratio(Fraction(x.value), 5, hybrid_below=Fraction(1, 10 ** 5))
            for x in (result.lower, result.value, result.upper)
        ]
        csv_rows.append(csv_row)
        lines.append(" ".join(str(cell) for cell in csv_row))
        payload_rows.append(
            {
                "s": s,
                "q": q,
                "lower": _approx_payload(result.lower),
                "exact": _approx_payload(result.value),
                "upper": _approx_payload(result.upper),
            }
        )
    return 0, _emit(args, {"rows": payload_rows}, lines, csv_rows)


def _rank_trend(args) -> tuple[int, str]:
    ring = _ring(args)
    rate = _parse_fraction(args.rprime)
    n_list = _parse_ints(args.n_list)
    values = density.rank_density_trend(ring, rate, n_list)
    csv_rows = [["n", "K", "probability"]]
    lines = []
    payload_rows = []
    for n, value in zip(n_list, values):
        k = int(rate * n)
        decimal = render.render_ratio(value, args.precision)
        csv_rows.append([n, k, decimal])
        lines.append(f"n={n} K={k} {decimal}")
        payload_rows.append({"n": n, "K": k, **_ratio_payload(value, args.precision)})
    return 0, _emit(args, {"rows": payload_rows}, lines, csv_rows)


def _order_explore(args) -> tuple[int, str]:
    ring = _ring(args)
    pairs = density.type_counts_sorted(args.n, ring, args.ell)
    header = [f"k_{i + 1}" for i in range(ring.s)] + ["count"]
    csv_rows = [header]
    lines = []
    payload_rows = []
    for mtype, count in pairs:
        digits = render.render_integer(count)
        csv_rows.append([*mtype, digits])
        lines.append(f"{','.join(map(str, mtype))} {digits}")
        payload_rows.append({"type": list(mtype), "count": digits})
    return 0, _emit(args, {"rows": payload_rows}, lines, csv_rows)


def _oracle(args, verify: bool = False) -> tuple[int, str]:
    """The census against the formulas; ``verify`` adds the total and a verdict."""
    ring = _concrete(args)
    census, rows, ok = simulate.verify_census(ring, args.n)
    header = [f"k_{i + 1}" for i in range(ring.s)] + ["count", "exact_formula", "match"]
    csv_rows = [header]
    payload_rows = []
    lines = []
    for mtype, counted, formula, match in rows:
        csv_rows.append([*mtype, counted, formula, str(match).lower()])
        payload_rows.append(
            {"type": list(mtype), "count": counted, "formula": str(formula), "match": match}
        )
        lines.append(
            f"{','.join(map(str, mtype))} census={counted} formula={formula} "
            f"{'ok' if match else 'MISMATCH'}"
        )
    payload = {"rows": payload_rows, "total": census.total, "all_match": ok}
    if not verify:
        return 0, _emit(args, payload, lines, csv_rows)
    lines += [f"total {census.total}", "PASS" if ok else "FAIL"]
    return (0 if ok else 1), _emit(args, payload, lines, csv_rows)


def _ball(args) -> tuple[int, str]:
    model = _model(args)
    value = coding_mod.ball_volume(args.n, _parse_fraction(args.w), model, closed=args.closed)
    text = render.render_integer(value)
    return 0, _emit(args, {"volume": text}, [text])


def _entropy(args) -> tuple[int, str]:
    model = _model(args)
    value = coding_mod.entropy_estimate(args.n, args.delta, model)
    payload = _approx_payload(value)
    if model.kind == coding_mod.HAMMING:
        payload["closed_form"] = coding_mod.q_ary_entropy(model.ring.modulus, args.delta)
    return 0, _emit(args, payload, [f"{value.value:.6f}"])


def _gv_experiment(args) -> tuple[int, str]:
    report = coding_mod.gv_random_experiment(
        args.n, args.delta, args.eps, _model(args), args.trials, args.seed, jobs=args.threads
    )
    payload = {
        "params": {
            "p": report.p,
            "s": report.s,
            "metric": report.metric,
            "n": report.n,
            "delta": report.delta,
            "epsilon": report.epsilon,
            "trials": report.trials,
            "seed": report.seed,
        },
        "k": report.k,
        "g_n": report.growth_rate,
        "distance_cutoff": float(report.distance_cutoff),
        "bound_exact": f"{report.unimodular_probability.numerator}/{report.unimodular_probability.denominator}",
        "bound_decimal": report.bound,
        "tail_factor": report.tail_factor,
        "vacuous": report.vacuous,
        "fractions": {
            "free": report.free_fraction,
            "distance": report.distance_fraction,
            "joint": report.joint_fraction,
        },
        "sigma": report.sigma,
        "pass": report.passed,
    }
    csv_rows = [["stream", "free", "min_dist"]]
    for outcome in report.outcomes:
        dist = "inf" if outcome.min_distance == math.inf else str(outcome.min_distance)
        csv_rows.append([outcome.stream, str(outcome.free).lower(), dist])
    lines = [
        f"k={report.k} g_n={report.growth_rate:.6f} cutoff={float(report.distance_cutoff):.6f}",
        f"bound={report.bound:.6f} (vacuous={str(report.vacuous).lower()}) sigma={report.sigma:.6f}",
        f"free={report.free_fraction:.6f} distance={report.distance_fraction:.6f} "
        f"joint={report.joint_fraction:.6f}",
        "PASS" if report.passed else "FAIL",
    ]
    return (0 if report.passed else 1), _emit(args, payload, lines, csv_rows)


# ---------------------------------------------------------------- command table

# option name -> (flag, add_argument keywords)
OPTIONS = {
    "format": ("--format", {"choices": ("text", "json", "csv"), "default": "text"}),
    "precision": ("--precision", {"type": int, "default": 6}),
    **{
        name: (f"--{name}", {"type": int, "required": True})
        for name in ("n", "m", "q", "s", "p", "K", "k", "ell", "trials", "seed")
    },
    "s=1": ("--s", {"type": int, "default": 1}),  # prob unimodular: a field unless given
    **{
        name: (f"--{name}", {"type": str, "required": True})
        for name in ("type", "shape", "rprime", "n-list", "w", "d")
    },
    **{name: (f"--{name}", {"type": float, "required": True}) for name in ("delta", "eps")},
    "metric": ("--metric", {"choices": coding_mod.KINDS, "required": True}),
    "closed": ("--closed", {"action": "store_true"}),
    "threads": ("--threads", {"type": int, "default": 1}),
}

GROUPS = {
    "count": "exact submodule and matrix counts",
    "prob": "exact probabilities",
    "density": "asymptotic free-module densities",
    "oracle": "exhaustive submodule censuses",
    "code": "weights, ball volumes and GV experiments",
}

# (group, subject, options after --format and --precision, handler)
COMMANDS = (
    ("count", "free", "n q s K", _count(lambda a: modcount.count_free(a.n, _ring(a), a.K))),
    ("count", "type", "n q s type",
     _count(lambda a: modcount.count_by_type(a.n, _ring(a), _parse_ints(a.type)))),
    ("count", "shape", "n q s shape",
     _count(lambda a: modcount.count_by_shape(a.n, _ring(a), _parse_ints(a.shape)))),
    ("count", "length", "n q s ell", _count(lambda a: modcount.total_by_length(a.n, _ring(a), a.ell))),
    ("count", "rank", "n q s K", _count(lambda a: modcount.total_by_rank(a.n, _ring(a), a.K))),
    ("count", "matrix", "n q s type m",
     _count(lambda a: modcount.matrix_count_by_type(a.m, a.n, _ring(a), _parse_ints(a.type)))),
    ("prob", "free-length", "n q s ell",
     _ratio(lambda a: modcount.free_fraction_by_length(a.n, _ring(a), a.ell))),
    ("prob", "free-rank", "n q s K",
     _ratio(lambda a: modcount.free_fraction_by_rank(a.n, _ring(a), a.K))),
    ("prob", "unimodular", "n q s=1 k",
     _ratio(lambda a: modcount.unimodular_probability(a.k, a.n, _ring(a)))),
    ("density", "limit", "q s", _certified(lambda a: density.limit_free_density(_ring(a)))),
    ("density", "bounds", "q s", _bounds),
    ("density", "s2-closed", "q", _certified(lambda a: density.depth_two_density(a.q))),
    ("density", "table1", "", _table1),
    ("density", "rank-trend", "q s rprime n-list", _rank_trend),
    ("density", "order-explore", "n q s ell", _order_explore),
    ("oracle", "enumerate", "p s n", _oracle),
    ("oracle", "verify", "p s n", partial(_oracle, verify=True)),
    ("code", "ball", "metric p s n w closed", _ball),
    ("code", "gv", "metric p s n d", _ratio(_gv)),
    ("code", "entropy", "metric p s n delta", _entropy),
    ("code", "gv-experiment", "metric p s n delta eps trials seed threads", _gv_experiment),
)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process from ``COMMANDS``.

    Parsing does not change an argparse parser, and every parse fills a
    fresh Namespace, so calls of ``run`` cannot see each other's arguments.
    """
    parser = argparse.ArgumentParser(
        prog="chainring",
        description="Exact counting and density computations over finite chain rings.",
    )
    parser.add_argument("--version", action="version", version=f"chainring {__version__}")
    top = parser.add_subparsers(dest="group", required=True)
    subjects = {
        group: top.add_parser(group, help=text).add_subparsers(dest="subject", required=True)
        for group, text in GROUPS.items()
    }
    for group, subject, options, handler in COMMANDS:
        sub = subjects[group].add_parser(subject)
        for name in ("format", "precision", *options.split()):
            flag, spec = OPTIONS[name]
            sub.add_argument(flag, **spec)
        sub.set_defaults(func=handler, command_path=f"{group} {subject}")
    return parser


def _read_plain(argv) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, for a plain command line.

    A line is plain when its first two words name a command, and every later
    token is an exact ``--flag value`` pair of that command's ``OPTIONS``, or
    a store-true flag alone; no value starts with ``-``, every value converts
    with its option's ``type`` and lies in its ``choices``, and every
    required flag is given.  A repeated flag keeps its last value, as in
    argparse.  On such a line the tree fills exactly this namespace and
    reports nothing: no command flag abbreviates ``--help`` or ``--version``,
    so the top and group parsers hand every token down to the subject parser.
    For any other line this returns None.
    """
    head = tuple(argv[:2])
    for group, subject, options, handler in COMMANDS:
        if head == (group, subject):
            break
    else:
        return None
    flags = {}
    values = {"group": group, "subject": subject}
    for name in ("format", "precision", *options.split()):
        flag, spec = OPTIONS[name]
        dest = flag[2:].replace("-", "_")
        flags[flag] = dest, spec
        values[dest] = spec.get("default", False if spec.get("action") == "store_true" else None)
    given = set()
    index = 2
    while index < len(argv):
        if argv[index] not in flags:
            return None
        dest, spec = flags[argv[index]]
        if spec.get("action") == "store_true":
            values[dest] = True
            index += 1
            continue
        if index + 1 == len(argv) or argv[index + 1].startswith("-"):
            return None
        try:
            value = spec.get("type", str)(argv[index + 1])
        except (TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
        given.add(dest)
        index += 2
    if any(spec.get("required") and dest not in given for dest, spec in flags.values()):
        return None
    return argparse.Namespace(**values, func=handler, command_path=f"{group} {subject}")


def run(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None); return its exit status.

    A plain command line (see ``_read_plain``) is read straight from the
    command table, into the namespace the parser tree would fill, and the
    tree is never built.  Every other line goes whole through the tree of
    ``build_parser``, which prints the help, the version or the usage error,
    so what argparse prints and the exit status it gives are its own, byte
    for byte.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        status, output = args.func(args)
    except (ParameterError, NonconvergentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return status


def main():  # console entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()
