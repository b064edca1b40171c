"""Named verification batteries over frozen reference values, and the text
grammar for naming algebras on the command line."""

from dataclasses import dataclass
from functools import reduce

from .analysis import (
    DEFAULT_CONFIG,
    Meter,
    admissible_exponent,
    capelli_threshold,
    codim_graded,
    codim_ordinary,
    is_reduced,
    satisfies_generator_set,
    threshold_offsets,
)
from .core import (
    _shown,
    direct_sum,
    hom_dims,
    is_star_graded_simple,
    peirce_decompose,
    radical_centralizer,
)
from .extensions import (
    commutative_nilpotent,
    noncommutative_nilpotent,
    one_sided_radical_extension,
    tensor_nilpotent_extension,
)
from .families import (
    MHL_T,
    MHH_S,
    MHL_EXC,
    MN_CMN_STAR,
    MN_CMN_DAGGER,
    MN_CMN_EXC,
    FamilyTag,
    build_family,
    classified_hom_dims,
)
from .polynomials import KINDS, generator_family
from .triangular import UtSpec, component_corner_size, ut_star

TOKEN_TO_TAG = {
    "m_hl_transpose": MHL_T,
    "m_hh_symplectic": MHH_S,
    "m_hl_exchange": MHL_EXC,
    "mn_cmn_star": MN_CMN_STAR,
    "mn_cmn_dagger": MN_CMN_DAGGER,
    "mn_cmn_exchange": MN_CMN_EXC,
}


@dataclass(frozen=True)
class CheckRow:
    check: str
    subject: str
    kind: str
    n: str
    expected: str
    actual: str
    status: str


def row(check, subject, kind, n, expected, actual, ok=None):
    exp, act = str(expected), str(actual)
    if ok is None:
        ok = exp == act
    return CheckRow(check, subject, str(kind), str(n), exp, act, "ok" if ok else "FAIL")


def _parse_params(text):
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        out.append(int(piece) if piece.lstrip("-").isdigit() else piece)
    return tuple(out)


def _split_top(text, sep):
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_family_token(text):
    """One family token, e.g. 'mn_cmn_star:2,t', as a FamilyTag."""
    name, _, args = text.strip().partition(":")
    if name not in TOKEN_TO_TAG:
        raise ValueError(f"unknown family {_shown(name)}")
    return FamilyTag(TOKEN_TO_TAG[name], _parse_params(args) if args else ())


def check_dimension(dim, config=DEFAULT_CONFIG):
    """Refuse an algebra before it is built when the radical's elimination on
    its unit extension, (dim + 1)^2 entries, is over config.cap_evals."""
    nominal = (dim + 1) ** 2
    Meter(config).charge(nominal, f"dimension {dim} (a radical elimination of {nominal} entries)")


def parse_algebra_spec(text, config=DEFAULT_CONFIG):
    """Build an algebra from a spec string.

    Grammar: TERM ('+' TERM)* is a direct sum; TERM is a family token,
    'commutative_nilpotent:k', 'noncommutative_nilpotent',
    'one_sided[SPEC]', or 'tensor[SPEC|SPEC]'. The whole spec is read, and
    its dimension checked, before anything is built."""
    dim, build = _plan(text)
    check_dimension(dim, config)
    return build()


def _plan(text):
    """(dimension, builder) of a spec, from the closed forms. Every term has
    dimension at least 1, so the total bounds each algebra built on the way."""
    plans = [_plan_term(t.strip()) for t in _split_top(text.strip(), "+")]
    return sum(d for d, _ in plans), lambda: reduce(direct_sum, (b() for _, b in plans))


def _plan_term(text):
    if text.startswith("one_sided[") and text.endswith("]"):
        d, base = _plan(text[len("one_sided[") : -1])
        return 3 * d, lambda: one_sided_radical_extension(base())
    if text.startswith("tensor[") and text.endswith("]"):
        inner = _split_top(text[len("tensor[") : -1], "|")
        if len(inner) != 2:
            raise ValueError("tensor[...] needs exactly two parts separated by |")
        (d, base), (dn, nil) = _plan(inner[0]), _plan(inner[1])
        return d * (dn + 1), lambda: tensor_nilpotent_extension(base(), nil())
    name, _, args = text.partition(":")
    if name == "commutative_nilpotent":
        params = _parse_params(args) if args else (1,)
        if len(params) != 1:
            raise ValueError(f"commutative_nilpotent takes one parameter k, got {_shown(args)}")
        (k,) = params
        if type(k) is not int or k < 1:
            raise ValueError(f"commutative_nilpotent needs an integer k >= 1, got {_shown(k)}")
        return k, lambda: commutative_nilpotent(k)
    if name == "noncommutative_nilpotent":
        if args:
            raise ValueError(f"noncommutative_nilpotent takes no parameters, got {_shown(args)}")
        return 4, noncommutative_nilpotent
    tag = parse_family_token(text)
    return sum(classified_hom_dims(tag)), lambda: build_family(tag)


def parse_ut_spec(components, shifts, config=DEFAULT_CONFIG):
    """UtSpec from '+'-joined family tokens and a comma list of 0/1 shifts.

    The glueing's dimension, the blocks' plus (sum s)^2 - sum s^2 over the
    corner sizes s for the radical, goes through check_dimension."""
    tags = tuple(parse_family_token(t) for t in _split_top(components, "+"))
    sh = tuple(int(s) for s in shifts.split(",")) if shifts else (0,) * len(tags)
    spec = UtSpec(tags, sh)
    sizes = [component_corner_size(t) for t in tags]
    radical = sum(sizes) ** 2 - sum(s * s for s in sizes)
    check_dimension(sum(sum(classified_hom_dims(t)) for t in tags) + radical, config)
    return spec


def ut_subject(components, shifts):
    return f"ut[{components};{','.join(str(s) for s in shifts)}]"


# Frozen hom-component dimension grid: (spec, (even sym, even skew, odd sym, odd skew)).
DIMS_GRID = (
    ("m_hl_transpose:1,0", (1, 0, 0, 0)),
    ("m_hl_transpose:1,1", (2, 0, 1, 1)),
    ("m_hl_transpose:2,1", (4, 1, 2, 2)),
    ("m_hl_transpose:2,2", (6, 2, 4, 4)),
    ("m_hh_symplectic:1", (1, 1, 0, 2)),
    ("m_hh_symplectic:2", (4, 4, 2, 6)),
    ("m_hl_exchange:1,0", (1, 1, 0, 0)),
    ("m_hl_exchange:1,1", (2, 2, 2, 2)),
    ("m_hl_exchange:2,1", (5, 5, 4, 4)),
    ("m_hl_exchange:2,2", (8, 8, 8, 8)),
    ("mn_cmn_star:1,t", (1, 0, 0, 1)),
    ("mn_cmn_star:2,t", (3, 1, 1, 3)),
    ("mn_cmn_star:2,s", (1, 3, 3, 1)),
    ("mn_cmn_dagger:1,t", (1, 0, 1, 0)),
    ("mn_cmn_dagger:2,t", (3, 1, 3, 1)),
    ("mn_cmn_dagger:2,s", (1, 3, 1, 3)),
    ("mn_cmn_exchange:1", (1, 1, 1, 1)),
    ("mn_cmn_exchange:2", (4, 4, 4, 4)),
)

# The grid members small enough for full threshold sweeps.
SMALL_SIMPLE_GRID = tuple(
    s
    for s, _ in DIMS_GRID
    if s
    not in ("m_hl_transpose:2,2", "m_hh_symplectic:2", "m_hl_exchange:2,1", "m_hl_exchange:2,2", "mn_cmn_exchange:2")
)

UT2_COMPONENTS = "m_hl_transpose:1,1+m_hl_transpose:1,1"
SANDWICH_BASES = ("m_hl_transpose:1,0", "m_hl_transpose:1,1", "mn_cmn_star:1,t")


def suite_dims(config=DEFAULT_CONFIG):
    rows = []
    for spec, expected in DIMS_GRID:
        A = parse_algebra_spec(spec, config)
        tag = parse_family_token(spec)
        got = hom_dims(A)
        table = classified_hom_dims(tag)
        for i, kind in enumerate(KINDS):
            rows.append(row("dims", spec, kind, "", expected[i], got[i]))
        rows.append(row("dims-closed-form", spec, "", "", expected, table))
        rows.append(row("dims-sum", spec, "", "", A.dim, sum(got)))
    return rows


def suite_thresholds(config=DEFAULT_CONFIG):
    rows = []
    for spec in SMALL_SIMPLE_GRID:
        A = parse_algebra_spec(spec, config)
        dims = hom_dims(A)
        for i, kind in enumerate(KINDS):
            rep = capelli_threshold(A, kind, config=config)
            rows.append(row("threshold", spec, kind, rep.search_cap, dims[i] + 1, rep.threshold))
            has_witness = rep.witness is not None
            rows.append(
                row("threshold-witness", spec, kind, "", dims[i] > 0, has_witness)
            )
    ut2 = parse_ut_spec(UT2_COMPONENTS, "0,0", config)
    A2 = ut_star(ut2)
    sums = [0, 0, 0, 0]
    for t in ut2.components:
        for i, d in enumerate(classified_hom_dims(t)):
            sums[i] += d
    for i, kind in enumerate(KINDS):
        rep = capelli_threshold(A2, kind, config=config)
        rows.append(
            row("threshold", ut_subject(UT2_COMPONENTS, (0, 0)), kind, rep.search_cap, sums[i] + 2, rep.threshold)
        )
    for shifts, expected_r in (((0, 0), (1, 0)), ((0, 1), (0, 1))):
        spec = parse_ut_spec("m_hl_transpose:1,0+m_hl_transpose:1,0", ",".join(map(str, shifts)), config)
        rep = threshold_offsets(spec, config)
        subject = ut_subject("m_hl_transpose:1,0+m_hl_transpose:1,0", shifts)
        rows.append(row("threshold-offsets", subject, "", "", expected_r, (rep.offset_even, rep.offset_odd)))
        rows.append(
            row(
                "threshold-offsets-split",
                subject,
                "",
                "",
                rep.m_trivial - rep.m_runs,
                rep.offset_even + rep.offset_odd,
            )
        )
    return rows


def suite_sandwich(config=DEFAULT_CONFIG):
    rows = []
    subjects = list(SANDWICH_BASES)
    for i in range(len(SANDWICH_BASES)):
        for j in range(i + 1, len(SANDWICH_BASES)):
            subjects.append(SANDWICH_BASES[i] + "+" + SANDWICH_BASES[j])
    for spec in subjects:
        A = parse_algebra_spec(spec, config)
        for n in range(1, 5):
            c_ord = codim_ordinary(A, n, config).value
            c_gr = codim_graded(A, n, config).value
            ok = c_ord <= c_gr <= (4**n) * c_ord
            rows.append(
                row("sandwich", spec, "", n, f"[{c_ord}..{4 ** n * c_ord}]", c_gr, ok)
            )
    return rows


def suite_peirce(config=DEFAULT_CONFIG):
    cases = (
        ("one_sided[m_hl_transpose:1,1]", (0, 4, 4, 0), 0),
        ("tensor[m_hl_transpose:1,1|commutative_nilpotent:1]", (0, 0, 0, 4), 1),
    )
    rows = []
    for spec, expected, cent in cases:
        A = parse_algebra_spec(spec, config)
        dec = peirce_decompose(A)
        got = (dec.j00.dim, dec.j01.dim, dec.j10.dim, dec.j11.dim)
        rows.append(row("peirce", spec, "", "", expected, got))
        rows.append(row("radical-centralizer", spec, "", "", cent, radical_centralizer(A).dim))
    ut2 = ut_star(parse_ut_spec(UT2_COMPONENTS, "0,0", config))
    dec = peirce_decompose(ut2)
    got = (dec.j00.dim, dec.j01.dim, dec.j10.dim, dec.j11.dim)
    subject = ut_subject(UT2_COMPONENTS, (0, 0))
    rows.append(row("peirce", subject, "", "", (0, 0, 0, 8), got))
    rows.append(row("radical-centralizer", subject, "", "", 0, radical_centralizer(ut2).dim))
    return rows


def suite_exponent(config=DEFAULT_CONFIG):
    rows = []
    for spec in ("m_hl_transpose:2,1", "mn_cmn_star:2,t", "m_hl_exchange:1,1"):
        A = parse_algebra_spec(spec, config)
        rows.append(row("exponent", spec, "", "", A.dim, admissible_exponent(A, config)))
        rows.append(row("is-reduced", spec, "", "", True, is_reduced(A, config)))
    ut2 = ut_star(parse_ut_spec(UT2_COMPONENTS, "0,0", config))
    subject = ut_subject(UT2_COMPONENTS, (0, 0))
    rows.append(row("exponent", subject, "", "", 8, admissible_exponent(ut2, config)))
    rows.append(row("is-reduced", subject, "", "", True, is_reduced(ut2, config)))
    small = ut_star(parse_ut_spec("m_hl_transpose:1,0+m_hl_transpose:1,0", "0,0", config))
    rows.append(
        row("exponent", ut_subject("m_hl_transpose:1,0+m_hl_transpose:1,0", (0, 0)), "", "", 2, admissible_exponent(small, config))
    )
    ds = parse_algebra_spec("m_hl_transpose:1,1+m_hl_transpose:1,0", config)
    rows.append(row("exponent", "m_hl_transpose:1,1+m_hl_transpose:1,0", "", "", 4, admissible_exponent(ds, config)))
    rows.append(row("is-reduced", "m_hl_transpose:1,1+m_hl_transpose:1,0", "", "", False, is_reduced(ds, config)))
    for spec, expected in (
        ("one_sided[m_hl_transpose:1,1]", 4),
        ("tensor[m_hl_transpose:1,1|commutative_nilpotent:1]", 4),
    ):
        A = parse_algebra_spec(spec, config)
        rows.append(row("exponent", spec, "", "", expected, admissible_exponent(A, config)))
    return rows


def suite_counterexamples(config=DEFAULT_CONFIG):
    rows = []
    for base_spec in ("m_hl_transpose:1,0", "m_hl_transpose:1,1"):
        base = parse_algebra_spec(base_spec, config)
        dims = hom_dims(base)
        gens = generator_family(*(d + 1 for d in dims))
        base_rep = satisfies_generator_set(base, gens, config)
        rows.append(row("generators", base_spec, "", len(gens), True, base_rep.satisfied))
        for ext_spec in (
            f"one_sided[{base_spec}]",
            f"tensor[{base_spec}|noncommutative_nilpotent]",
        ):
            R = parse_algebra_spec(ext_spec, config)
            rows.append(row("simple", ext_spec, "", "", False, is_star_graded_simple(R)))
            rep = satisfies_generator_set(R, gens, config)
            ok = (not rep.satisfied) and rep.witness is not None
            rows.append(row("generators", ext_spec, "", len(gens), False, rep.satisfied, ok))
    return rows


SUITES = {
    "dims": suite_dims,
    "thresholds": suite_thresholds,
    "sandwich": suite_sandwich,
    "peirce": suite_peirce,
    "exponent": suite_exponent,
    "counterexamples": suite_counterexamples,
}


def run_suite(name, config=DEFAULT_CONFIG):
    if name == "all":
        rows = []
        for key in SUITES:
            rows.extend(SUITES[key](config))
        return rows
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    return SUITES[name](config)
