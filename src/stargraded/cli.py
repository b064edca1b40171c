"""Command line front end: build algebras, run checks, emit CSV reports."""

import csv
import functools
import io
import json
import sys
from pathlib import Path

import click

from .analysis import (
    DEFAULT_CONFIG,
    RunConfig,
    admissible_exponent,
    capelli_threshold,
    codim_graded,
    codim_graded_bruteforce,
    codim_ordinary,
    codim_table,
    is_graded_identity,
    is_reduced,
)
from .checks import SUITES, check_dimension, parse_algebra_spec, parse_family_token, parse_ut_spec, row, run_suite
from .core import _frac_str, hom_dims, load_algebra, require_valid, to_interchange, validate
from .errors import InternalInconsistencyError, SizeCapError
from .families import classified_hom_dims
from .polynomials import ANY, KINDS, capelli_member
from .triangular import ut_star

CSV_FIELDS = ("check", "subject", "kind", "n", "expected", "actual", "status")

# exit code 2 is reserved for size-cap refusals, so malformed usage exits 1
click.UsageError.exit_code = 1


def csv_text(rows):
    """The CSV report of check rows, header first."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_FIELDS)
    for r in rows:
        w.writerow([r.check, r.subject, r.kind, r.n, r.expected, r.actual, r.status])
    return buf.getvalue()


def _emit(text, out):
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def emit_rows(rows, out):
    _emit(csv_text(rows), out)


def emit_algebra(A, out):
    _emit(json.dumps(to_interchange(A), indent=1) + "\n", out)


def guarded(f):
    @functools.wraps(f)
    def wrapper(*a, **kw):
        try:
            return f(*a, **kw)
        except SizeCapError as e:
            click.echo(f"refused: {e}", err=True)
            sys.exit(2)
        except MemoryError as e:
            # a refusal, not bad input: the frames the error unwound are freed by now
            click.echo(f"refused: out of memory{f': {e}' if str(e) else ''}", err=True)
            sys.exit(2)
        except InternalInconsistencyError as e:
            click.echo(f"internal inconsistency: {e}", err=True)
            sys.exit(3)
        except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
@click.option("--cap-n", default=DEFAULT_CONFIG.cap_n, show_default=True, help="largest codimension degree")
@click.option("--cap-evals", default=DEFAULT_CONFIG.cap_evals, show_default=True, help="work budget per computation: sweep work, enumeration sizes")
@click.option("--out", default=None, type=click.Path(), help="write the report here instead of stdout")
@click.pass_context
@guarded
def main(ctx, cap_n, cap_evals, out):
    """Exact constructions and identity checks for superalgebras with involution."""
    ctx.obj = (RunConfig(cap_n=cap_n, cap_evals=cap_evals), out)


def subject_options(f):
    """The --spec/--input pair that names the algebra a command reads."""
    f = click.option("--input", "input_path", default=None, type=click.Path(exists=True))(f)
    return click.option("--spec", default=None, help="algebra spec string")(f)


def _subject(spec, input_path, config):
    if (spec is None) == (input_path is None):
        raise ValueError("provide exactly one of --spec or --input")
    if spec is not None:
        return parse_algebra_spec(spec, config), spec
    A = load_algebra(input_path)
    check_dimension(A.dim, config)
    problems = validate(A)
    if problems:
        raise ValueError(f"loaded algebra is inconsistent: {problems[0]}")
    return A, input_path


@main.command()
@click.argument("spec")
@click.pass_obj
@guarded
def build(obj, spec):
    """Construct a named algebra or direct sum and emit interchange JSON."""
    config, out = obj
    emit_algebra(require_valid(parse_algebra_spec(spec, config)), out)


@main.command()
@click.option("--components", required=True, help="'+'-joined family tokens, inner corner first")
@click.option("--shifts", default="", help="comma list of 0/1 grading shifts, one per component")
@click.option("--layout", "show_layout", is_flag=True, help="print the corner layout to stderr")
@click.pass_obj
@guarded
def ut(obj, components, shifts, show_layout):
    """Build the block triangular algebra of simple components."""
    config, out = obj
    spec = parse_ut_spec(components, shifts, config)
    A = ut_star(spec)
    if show_layout:
        lay = A.layout
        click.echo(f"sizes={lay.sizes} bounds={lay.bounds} blocks={lay.blocks}", err=True)
        click.echo(f"degrees={lay.degrees}", err=True)
    emit_algebra(A, out)


@main.command()
@subject_options
@click.pass_obj
@guarded
def dims(obj, spec, input_path):
    """Report the four homogeneous component dimensions."""
    config, out = obj
    A, subject = _subject(spec, input_path, config)
    got = hom_dims(A)
    expected = ("", "", "", "")
    if spec is not None and "+" not in spec and "[" not in spec:
        try:
            expected = classified_hom_dims(parse_family_token(spec))
        except ValueError:
            pass
    rows = []
    for i, kind in enumerate(KINDS):
        exp = expected[i]
        rows.append(row("dims", subject, kind, "", exp, got[i], True if exp == "" else exp == got[i]))
    emit_rows(rows, out)
    if any(r.status == "FAIL" for r in rows):
        sys.exit(1)


@main.command()
@subject_options
@click.option("--kind", "kind", required=True, type=click.Choice(list(KINDS) + [ANY]))
@click.option("--unbarred", is_flag=True, help="only the full member, no deletion patterns")
@click.option("--witness-out", default=None, type=click.Path())
@click.pass_obj
@guarded
def threshold(obj, spec, input_path, kind, unbarred, witness_out):
    """Smallest rank at which the (barred) alternating family becomes identities."""
    config, out = obj
    A, subject = _subject(spec, input_path, config)
    rep = capelli_threshold(A, kind, config, barred=not unbarred)
    rows = [row("threshold", subject, kind, rep.search_cap, "", rep.threshold, True)]
    emit_rows(rows, out)
    if witness_out and rep.witness is not None:
        Path(witness_out).write_text(_witness_json(rep.witness))


def _witness_json(w):
    doc = {
        "slot_kinds": list(w.poly.slot_kinds),
        "assignment": [[_frac_str(c) for c in v] for v in w.assignment],
        "value": [_frac_str(c) for c in w.value],
        "rank": w.poly.rank,
        "kind": w.poly.kind,
        "deleted": sorted(w.poly.deleted),
    }
    return json.dumps(doc, indent=1) + "\n"


@main.command()
@subject_options
@click.option("--rank", required=True, type=int)
@click.option("--kind", required=True, type=click.Choice(list(KINDS) + [ANY]))
@click.option("--deleted", default="", help="comma list of deleted connector gaps")
@click.option("--witness-out", default=None, type=click.Path())
@click.pass_obj
@guarded
def identity(obj, spec, input_path, rank, kind, deleted, witness_out):
    """Decide whether one barred family member is a graded identity."""
    config, out = obj
    A, subject = _subject(spec, input_path, config)
    dels = frozenset(int(x) for x in deleted.split(",") if x.strip() != "")
    p = capelli_member(rank, kind, dels)
    rep = is_graded_identity(A, p, config)
    rows = [
        row(
            "identity",
            subject,
            kind,
            rank,
            "",
            "yes" if rep.is_identity else "no",
            True,
        )
    ]
    emit_rows(rows, out)
    if witness_out and rep.witness is not None:
        Path(witness_out).write_text(_witness_json(rep.witness))


@main.command()
@subject_options
@click.option("--n", "degree", required=True, type=int)
@click.option("--ordinary", is_flag=True, help="untyped codimension instead of the graded one")
@click.option("--brute", is_flag=True, help="cross-check the graded value over all kind vectors")
@click.option("--table", "table_", is_flag=True, help="all degrees up to n, with n-th roots")
@click.pass_obj
@guarded
def codim(obj, spec, input_path, degree, ordinary, brute, table_):
    """Codimension of the multilinear identities in the given degree."""
    config, out = obj
    if ordinary + brute + table_ > 1:
        raise ValueError("--ordinary, --brute and --table are mutually exclusive")
    A, subject = _subject(spec, input_path, config)
    rows = []
    if table_:
        for n, value, root in codim_table(A, degree, config):
            rows.append(row("codim-graded", subject, "", n, "", value, True))
            rows.append(row("codim-root", subject, "", n, "", f"{root:.6f}", True))
    elif ordinary:
        rep = codim_ordinary(A, degree, config)
        rows.append(row("codim-ordinary", subject, "", degree, "", rep.value, True))
    else:
        rep = codim_graded(A, degree, config)
        rows.append(row("codim-graded", subject, "", degree, "", rep.value, True))
        if brute:
            other = codim_graded_bruteforce(A, degree, config)
            if other != rep.value:
                raise InternalInconsistencyError(
                    f"content sum {rep.value} but kind-vector sum {other}"
                )
            rows.append(row("codim-brute", subject, "", degree, rep.value, other))
    emit_rows(rows, out)


@main.command()
@subject_options
@click.pass_obj
@guarded
def exponent(obj, spec, input_path):
    """Admissible exponent from the Wedderburn block data, and reducedness."""
    config, out = obj
    A, subject = _subject(spec, input_path, config)
    rows = [
        row("exponent", subject, "", "", "", admissible_exponent(A, config), True),
        row("is-reduced", subject, "", "", "", is_reduced(A, config), True),
    ]
    emit_rows(rows, out)


@main.command("verify-paper")
@click.option("--suite", default="all", type=click.Choice([*SUITES, "all"]))
@click.pass_obj
@guarded
def verify_paper(obj, suite):
    """Run a named battery of checks against frozen reference values."""
    config, out = obj
    rows = run_suite(suite, config)
    emit_rows(rows, out)
    if any(r.status == "FAIL" for r in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
