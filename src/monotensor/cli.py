"""Command-line interface.

Exit codes: 0 when all requested checks pass, 1 when a numeric
assertion fails, 2 on unparseable input (click uses 2 for usage errors).
"""
from __future__ import annotations

import json
import math
import sys

import click

from . import __version__
from .haar import (
    CornerFamily,
    DiagPatternFamily,
    HaarWordSpec,
    mc_estimate,
    parse_word,
    rate_check,
)
from .model import (
    ModelSpec,
    build_example_pair,
    build_model,
    evaluate_state,
    limit_sweep,
    model_spec_from_json_obj,
    verify_cyclic,
    verify_monotone,
)
from .moments import (
    MomentData,
    cyclic_moment,
    monotone_moment,
    quotient_check,
    sign_pattern_check,
)
from .reports import canonical_json, emit_report, render_csv, write_text
from .sampling import random_alternating_poly, random_model_spec, stream
from .words import MissingMomentError, ParseError


def _fail(exc) -> "click.UsageError":
    return click.UsageError(str(exc))


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _fail(exc)


def _load_spec(path) -> ModelSpec:
    try:
        return model_spec_from_json_obj(_load_json(path))
    except (ValueError, ParseError) as exc:
        raise _fail(exc)


def _load_moments(path) -> MomentData:
    try:
        return MomentData.from_json_obj(_load_json(path))
    except ValueError as exc:
        raise _fail(exc)


def _ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise _fail(exc)


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise _fail(exc)


def _emit(text: str, output) -> None:
    """Write ``text`` to ``output`` when given, else echo it to stdout."""
    if output:
        write_text(output, text)
        click.echo(f"wrote {output}")
    else:
        click.echo(text, nl=False)


@click.group()
@click.version_option(version=__version__, prog_name="monotensor")
def main():
    """Moments of monotone and cyclic-monotone families, with matrix models."""


@main.command()
@click.option("--eigenvalues", default="0.5,0.25,0.125", show_default=True,
              help="Diagonal of the a-matrix.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--output", type=click.Path(writable=True), default=None)
def example(eigenvalues, fmt, output):
    """Spectra of the worked-example pair X = a + bab, Y = ab + ba."""
    try:
        pair = build_example_pair(_floats(eigenvalues))
    except ValueError as exc:
        raise _fail(exc)
    _emit(emit_report(pair, fmt), output)
    if not pair.ok:
        click.echo("eigenvalues deviate from the expected pattern", err=True)
        sys.exit(1)


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--state", default="full", show_default=True,
              help="full, monotone, or partial:<l>.")
@click.option("--k", default=1, show_default=True)
def model(spec_path, state, k):
    """Evaluate a diagonal state on a power of the model matrix."""
    spec = _load_spec(spec_path)
    if state.startswith("partial:"):
        try:
            parsed = ("partial", int(state.split(":", 1)[1]))
        except ValueError as exc:
            raise _fail(exc)
    elif state in ("full", "monotone"):
        parsed = state
    else:
        raise _fail(f"unknown state {state!r}")
    try:
        value = evaluate_state(build_model(spec), k, parsed)
    except ValueError as exc:
        raise _fail(exc)
    click.echo(canonical_json(
        {"k": k, "state": state, "value": [value.real, value.imag]}
    ), nl=False)


def _verify_command(kind):
    runner = verify_cyclic if kind == "cyclic" else verify_monotone

    @click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
    @click.option("--moments", "moments_path", type=click.Path(exists=True), default=None)
    @click.option("--k-max", "--k", "k_max", default=5, show_default=True)
    @click.option("--tolerance", default=1e-10, show_default=True)
    @click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
    @click.option("--output", type=click.Path(writable=True), default=None)
    def command(spec_path, moments_path, k_max, tolerance, fmt, output):
        spec = _load_spec(spec_path)
        data = _load_moments(moments_path) if moments_path else None
        try:
            report = runner(spec, data, k_max=k_max, rtol=tolerance)
        except (MissingMomentError, ValueError) as exc:
            raise _fail(exc)
        _emit(emit_report(report, fmt), output)
        if not report.passed:
            click.echo(f"max residual {report.max_residual:.3e}", err=True)
            sys.exit(1)

    command.__name__ = f"verify_{kind}"
    command.__doc__ = (
        f"Check the matrix model against the {kind} moments on powers 1..k-max."
    )
    return command


main.command("verify-cyclic")(_verify_command("cyclic"))
main.command("verify-monotone")(_verify_command("monotone"))


@main.command("verify-quotient")
@click.option("--spec", "spec_path", type=click.Path(exists=True), default=None,
              help="Check this spec's polynomial instead of random ones.")
@click.option("--count", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--right-factors", type=click.IntRange(min=1), default=50,
              show_default=True)
@click.option("--seed", default=20260819, show_default=True)
@click.option("--tolerance", default=1e-10, show_default=True)
@click.option("--output", type=click.Path(writable=True), default=None)
def verify_quotient(spec_path, count, right_factors, seed, tolerance, output):
    """Quotient-route evaluation against the direct evaluators.

    Also multiplies every dropped (annihilated) monomial by random
    right factors and checks that both functionals vanish on it.
    """
    tasks = []
    if spec_path:
        spec = _load_spec(spec_path)
        tasks.append((0, spec.poly, spec.moment_data()))
    else:
        for i in range(count):
            rng = stream(seed, 0xC0DE, i)
            spec = random_model_spec(rng)
            tasks.append((i, spec.poly, spec.moment_data()))
    rows = []
    try:
        for i, poly, data in tasks:
            rng = stream(seed, 0xFAC7, i)
            rights = (
                random_alternating_poly(rng, data.p, data.q)
                for _ in range(right_factors)
            )
            for check, residual, ok in quotient_check(poly, data, rights, tolerance):
                rows.append((i, check, residual, ok))
    except (MissingMomentError, ValueError) as exc:
        raise _fail(exc)
    _emit(render_csv(("index", "check", "residual", "pass"), rows), output)
    if not all(ok for *_, ok in rows):
        sys.exit(1)


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--k", default=2, show_default=True)
@click.option("--n", "n_text", default=None, help="Comma list; default n,2n,4n.")
@click.option("--l", "l_text", default="auto", show_default=True,
              help="Comma list of truncation points, or 'auto'.")
@click.option("--tolerance", default=1e-12, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--output", type=click.Path(writable=True), default=None)
def limits(spec_path, k, n_text, l_text, tolerance, fmt, output):
    """Tabulate the two iterated limits over an (n, l) grid."""
    spec = _load_spec(spec_path)
    n_list = _ints(n_text) if n_text else [spec.n, 2 * spec.n, 4 * spec.n]
    if not n_list:
        raise _fail("--n needs at least one dimension")
    l_list = None if l_text == "auto" else _ints(l_text)
    try:
        report = limit_sweep(spec, k, n_list, l_list, tol=tolerance)
        data = spec.moment_data()
        pk = spec.poly**k
        sym_cyclic = cyclic_moment(pk, data)
        sym_monotone = monotone_moment(pk, data)
    except (MissingMomentError, ValueError) as exc:
        raise _fail(exc)
    _emit(emit_report(report, fmt), output)
    agree = (
        abs(report.cyclic_value - sym_cyclic) <= 1e-10 * (1.0 + abs(sym_cyclic))
        and abs(report.monotone_value - sym_monotone)
        <= 1e-10 * (1.0 + abs(sym_monotone))
    )
    if not (report.ok and agree):
        click.echo("limit table failed stabilization or symbolic agreement", err=True)
        sys.exit(1)


@main.command()
@click.option("--moments", "moments_path", type=click.Path(exists=True), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--output", type=click.Path(writable=True), default=None)
def tables(moments_path, fmt, output):
    """Sign patterns of both functionals on the low-degree mixed words."""
    data = (
        _load_moments(moments_path)
        if moments_path
        else MomentData.standard((0.5, 0.25, 0.125))
    )
    try:
        report = sign_pattern_check(data)
    except (MissingMomentError, ValueError) as exc:
        raise _fail(exc)
    _emit(emit_report(report, fmt), output)
    if not report.ok:
        sys.exit(1)


@main.command()
@click.option("--word", default="ABAB", show_default=True)
@click.option("--n", "n_text", default="64,128,256", show_default=True)
@click.option("--l", "l_rule", default="full", show_default=True,
              help="full (cyclic target), half or an integer (monotone target); "
                   "half needs a word that starts with an A.")
@click.option("--trials", default=400, show_default=True)
@click.option("--seed", default=7, show_default=True)
@click.option("--family", "family_path", type=click.Path(exists=True), default=None,
              help="JSON with 'a' (eigenvalue blocks) and 'b' (diagonal patterns).")
@click.option("--c-rate", type=float, default=None,
              help="Frozen 1/n constant; calibrated at the smallest n when absent.")
@click.option("--slope-window", default="-1.6,-0.7", show_default=True)
@click.option("--output", type=click.Path(writable=True), default=None)
@click.option("--fit-output", type=click.Path(writable=True), default=None)
def haar(word, n_text, l_rule, trials, seed, family_path, c_rate, slope_window,
         output, fit_output):
    """Monte Carlo sweep of a conjugation word against its limit target."""
    a_families = (CornerFamily((0.5, 0.25, 0.125)),)
    b_families = (DiagPatternFamily((1.0, -1.0), (0.5, 0.5)),)
    if family_path:
        obj = _load_json(family_path)
        try:
            if "a" in obj:
                a_families = tuple(
                    CornerFamily(tuple(e["eigenvalues"])) for e in obj["a"]
                )
            if "b" in obj:
                b_families = tuple(
                    DiagPatternFamily(tuple(e["values"]), tuple(e["weights"]))
                    for e in obj["b"]
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise _fail(exc)
    window = _floats(slope_window)
    if len(window) != 2:
        raise _fail(f"--slope-window takes two numbers lo,hi, got {slope_window!r}")
    lo, hi = window
    if c_rate is not None and not math.isfinite(c_rate):
        raise _fail(f"--c-rate must be a finite number, got {c_rate}")
    if l_rule not in ("full", "half"):
        try:
            l_rule = int(l_rule)
        except ValueError as exc:
            raise _fail(exc)
    try:
        spec = HaarWordSpec(
            word=parse_word(word),
            a_families=a_families,
            b_families=b_families,
            n_list=tuple(_ints(n_text)),
            l_rule=l_rule,
            trials=trials,
            seed=seed,
        )
        report = mc_estimate(spec)
        fit = rate_check(report)
    except ValueError as exc:
        raise _fail(exc)
    frozen = c_rate if c_rate is not None else report.calibrate_c_rate()
    failures = report.bound_failures(frozen)
    slope_ok = fit.slope_in(lo, hi)
    _emit(emit_report(report, "csv"), output)
    _emit(emit_report(fit, "json"), fit_output)
    click.echo(
        f"c_rate={frozen:.6g} bound_failures={failures} "
        f"slope={fit.slope:.3f} band=({fit.band[0]:.3f},{fit.band[1]:.3f})"
    )
    if failures or not slope_ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
