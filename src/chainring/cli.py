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
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache

from . import __version__, density, modcount, render, simulate
from . import coding as coding_mod
from .approx import ApproxReal, default_policy
from .errors import BudgetExceededError, NonconvergentError, ParameterError, VerificationError

SCHEMA_VERSION = 1


def _parse_type(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"cannot parse integer list {text!r}") from exc


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse rational {text!r}") from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"cannot parse integer list {text!r}") from exc


def _ratio_text(x: Fraction, digits: int) -> str:
    num, den = render.render_integer(x.numerator), render.render_integer(x.denominator)
    return f"{num}/{den} = {render.render_ratio(x, digits)}"


def _ratio_payload(x: Fraction, digits: int) -> dict:
    return {
        "numerator": render.render_integer(x.numerator),
        "denominator": render.render_integer(x.denominator),
        "decimal": render.render_ratio(x, digits),
    }


def _approx_payload(x: ApproxReal) -> dict:
    return {"value": x.value, "abs_error": x.abs_error}


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
        return json.dumps(envelope, sort_keys=True, indent=2) + "\n"
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


# ---------------------------------------------------------------- count


def cmd_count(args) -> tuple[int, str]:
    ring = _ring(args)
    subject = args.subject
    if subject == "free":
        value = modcount.count_free(args.n, ring, args.K)
    elif subject == "type":
        value = modcount.count_by_type(args.n, ring, _parse_type(args.type))
    elif subject == "shape":
        value = modcount.count_by_shape(args.n, ring, _parse_type(args.shape))
    elif subject == "length":
        value = modcount.total_by_length(args.n, ring, args.ell)
    elif subject == "rank":
        value = modcount.total_by_rank(args.n, ring, args.K)
    else:  # matrix
        value = modcount.matrix_count_by_type(args.m, args.n, ring, _parse_type(args.type))
    text = render.render_integer(value)
    return 0, _emit(args, {"count": text}, [text])


# ---------------------------------------------------------------- prob


def cmd_prob(args) -> tuple[int, str]:
    subject = args.subject
    if subject == "free-length":
        ring = _ring(args)
        value = modcount.free_fraction_by_length(args.n, ring, args.ell)
    elif subject == "free-rank":
        ring = _ring(args)
        value = modcount.free_fraction_by_rank(args.n, ring, args.K)
    else:  # unimodular
        ring = modcount.ChainRingSpec(q=args.q, s=args.s)
        value = modcount.unimodular_probability(args.k, args.n, ring)
    text = _ratio_text(value, args.precision)
    return 0, _emit(args, _ratio_payload(value, args.precision), [text])


# ---------------------------------------------------------------- density


def _density_row_csv(s: int, q: int, result: density.DensityResult) -> list:
    return [
        s,
        q,
        render.render_ratio(Fraction(result.lower.value), 5, hybrid_below=Fraction(1, 10 ** 5)),
        render.render_ratio(Fraction(result.value.value), 5, hybrid_below=Fraction(1, 10 ** 5)),
        render.render_ratio(Fraction(result.upper.value), 5, hybrid_below=Fraction(1, 10 ** 5)),
    ]


def cmd_density(args) -> tuple[int, str]:
    subject = args.subject
    if subject == "limit":
        value = density.limit_free_density(_ring(args))
        text = f"{value.value:.10f} ± {value.abs_error:.3g}"
        return 0, _emit(args, _approx_payload(value), [text])
    if subject == "bounds":
        result = density.density_bounds(_ring(args))
        payload = {
            "lower": _approx_payload(result.lower),
            "value": _approx_payload(result.value),
            "upper": _approx_payload(result.upper),
        }
        lines = [
            f"lower {result.lower.value:.10f} ± {result.lower.abs_error:.3g}",
            f"exact {result.value.value:.10f} ± {result.value.abs_error:.3g}",
            f"upper {result.upper.value:.10f} ± {result.upper.abs_error:.3g}",
        ]
        return 0, _emit(args, payload, lines)
    if subject == "s2-closed":
        value = density.depth_two_density(args.q)
        text = f"{value.value:.10f} ± {value.abs_error:.3g}"
        return 0, _emit(args, _approx_payload(value), [text])
    if subject == "table1":
        rows = density.table1_rows()
        csv_rows = [["s", "q", "lower", "exact", "upper"]]
        payload_rows = []
        lines = ["s q lower exact upper"]
        for s, q, result in rows:
            csv_row = _density_row_csv(s, q, result)
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
    if subject == "rank-trend":
        ring = _ring(args)
        rate = _parse_fraction(args.rprime)
        n_list = _parse_int_list(args.n_list)
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
    # order-explore
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


# ---------------------------------------------------------------- oracle


def cmd_oracle(args) -> tuple[int, str]:
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
    if args.subject == "verify":
        lines.append(f"total {census.total}")
        lines.append("PASS" if ok else "FAIL")
        return (0 if ok else 1), _emit(args, payload, lines, csv_rows)
    return 0, _emit(args, payload, lines, csv_rows)


# ---------------------------------------------------------------- code


def cmd_code(args) -> tuple[int, str]:
    subject = args.subject
    model = _model(args)
    if subject == "ball":
        value = coding_mod.ball_volume(args.n, _parse_fraction(args.w), model, closed=args.closed)
        text = render.render_integer(value)
        return 0, _emit(args, {"volume": text}, [text])
    if subject == "gv":
        value = coding_mod.gv_lower_bound(args.n, _parse_fraction(args.d), model)
        text = _ratio_text(value, args.precision)
        return 0, _emit(args, _ratio_payload(value, args.precision), [text])
    if subject == "entropy":
        value = coding_mod.entropy_estimate(args.n, args.delta, model)
        payload = _approx_payload(value)
        if model.kind == coding_mod.HAMMING:
            payload["closed_form"] = coding_mod.q_ary_entropy(model.ring.modulus, args.delta)
        return 0, _emit(args, payload, [f"{value.value:.6f}"])
    # gv-experiment
    report = coding_mod.gv_random_experiment(
        args.n, args.delta, args.eps, model, args.trials, args.seed, jobs=args.threads
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


# ---------------------------------------------------------------- parser


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--precision", type=int, default=6)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing does not change an argparse parser, and every parse fills a
    fresh Namespace, so calls of ``run`` cannot see each other's arguments.
    """
    parser = argparse.ArgumentParser(
        prog="chainring",
        description="Exact counting and density computations over finite chain rings.",
    )
    parser.add_argument("--version", action="version", version=f"chainring {__version__}")
    top = parser.add_subparsers(dest="group", required=True)

    count = top.add_parser("count", help="exact submodule and matrix counts")
    count_sub = count.add_subparsers(dest="subject", required=True)
    for subject in ("free", "type", "shape", "length", "rank", "matrix"):
        sub = count_sub.add_parser(subject)
        _add_common(sub)
        sub.add_argument("--n", type=int, required=True)
        sub.add_argument("--q", type=int, required=True)
        sub.add_argument("--s", type=int, required=True)
        if subject in ("free", "rank"):
            sub.add_argument("--K", type=int, required=True)
        if subject == "length":
            sub.add_argument("--ell", type=int, required=True)
        if subject in ("type", "matrix"):
            sub.add_argument("--type", type=str, required=True)
        if subject == "shape":
            sub.add_argument("--shape", type=str, required=True)
        if subject == "matrix":
            sub.add_argument("--m", type=int, required=True)
        sub.set_defaults(func=cmd_count, command_path=f"count {subject}")

    prob = top.add_parser("prob", help="exact probabilities")
    prob_sub = prob.add_subparsers(dest="subject", required=True)
    for subject in ("free-length", "free-rank", "unimodular"):
        sub = prob_sub.add_parser(subject)
        _add_common(sub)
        sub.add_argument("--n", type=int, required=True)
        sub.add_argument("--q", type=int, required=True)
        if subject == "free-length":
            sub.add_argument("--s", type=int, required=True)
            sub.add_argument("--ell", type=int, required=True)
        elif subject == "free-rank":
            sub.add_argument("--s", type=int, required=True)
            sub.add_argument("--K", type=int, required=True)
        else:
            sub.add_argument("--s", type=int, default=1)
            sub.add_argument("--k", type=int, required=True)
        sub.set_defaults(func=cmd_prob, command_path=f"prob {subject}")

    dens = top.add_parser("density", help="asymptotic free-module densities")
    dens_sub = dens.add_subparsers(dest="subject", required=True)
    for subject in ("limit", "bounds", "s2-closed", "table1", "rank-trend", "order-explore"):
        sub = dens_sub.add_parser(subject)
        _add_common(sub)
        if subject in ("limit", "bounds"):
            sub.add_argument("--q", type=int, required=True)
            sub.add_argument("--s", type=int, required=True)
        elif subject == "s2-closed":
            sub.add_argument("--q", type=int, required=True)
        elif subject == "rank-trend":
            sub.add_argument("--q", type=int, required=True)
            sub.add_argument("--s", type=int, required=True)
            sub.add_argument("--rprime", type=str, required=True)
            sub.add_argument("--n-list", dest="n_list", type=str, required=True)
        elif subject == "order-explore":
            sub.add_argument("--n", type=int, required=True)
            sub.add_argument("--q", type=int, required=True)
            sub.add_argument("--s", type=int, required=True)
            sub.add_argument("--ell", type=int, required=True)
        sub.set_defaults(func=cmd_density, command_path=f"density {subject}")

    oracle = top.add_parser("oracle", help="exhaustive submodule censuses")
    oracle_sub = oracle.add_subparsers(dest="subject", required=True)
    for subject in ("enumerate", "verify"):
        sub = oracle_sub.add_parser(subject)
        _add_common(sub)
        sub.add_argument("--p", type=int, required=True)
        sub.add_argument("--s", type=int, required=True)
        sub.add_argument("--n", type=int, required=True)
        sub.set_defaults(func=cmd_oracle, command_path=f"oracle {subject}")

    code = top.add_parser("code", help="weights, ball volumes and GV experiments")
    code_sub = code.add_subparsers(dest="subject", required=True)
    for subject in ("ball", "gv", "entropy", "gv-experiment"):
        sub = code_sub.add_parser(subject)
        _add_common(sub)
        sub.add_argument("--metric", choices=coding_mod.KINDS, required=True)
        sub.add_argument("--p", type=int, required=True)
        sub.add_argument("--s", type=int, required=True)
        sub.add_argument("--n", type=int, required=True)
        if subject == "ball":
            sub.add_argument("--w", type=str, required=True)
            sub.add_argument("--closed", action="store_true")
        elif subject == "gv":
            sub.add_argument("--d", type=str, required=True)
        elif subject == "entropy":
            sub.add_argument("--delta", type=float, required=True)
        else:
            sub.add_argument("--delta", type=float, required=True)
            sub.add_argument("--eps", type=float, required=True)
            sub.add_argument("--trials", type=int, required=True)
            sub.add_argument("--seed", type=int, required=True)
            sub.add_argument("--threads", type=int, default=1)
        sub.set_defaults(func=cmd_code, command_path=f"code {subject}")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
