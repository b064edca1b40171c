"""Command line interface: subcommands, CSV contract, exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import stargraded as sg
from stargraded import analysis, checks, cli, core
from stargraded.cli import main
from stargraded.errors import SizeCapError

HEADER = "check,subject,kind,n,expected,actual,status"


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_build_emits_interchange_json(tmp_path):
    res = run("build", "m_hl_transpose:1,1")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["dim"] == 4
    assert doc["labels"][1] == "e1,2"
    path = tmp_path / "a.json"
    res = run("--out", str(path), "build", "m_hl_transpose:1,1")
    assert res.exit_code == 0
    assert json.loads(path.read_text())["dim"] == 4


def test_build_rejects_bad_specs():
    assert run("build", "m_hl_transpose:0,0").exit_code == 1
    assert run("build", "garbage").exit_code == 1


def test_ut_round_trips_through_load(tmp_path):
    path = tmp_path / "ut.json"
    res = run("--out", str(path), "ut", "--components",
              "m_hl_transpose:1,1+m_hl_transpose:1,1")
    assert res.exit_code == 0
    A = sg.load_algebra(path)
    assert A.dim == 16
    assert sg.validate(A) == []


def test_ut_shift_validation():
    res = run("ut", "--components", "m_hl_transpose:1,0", "--shifts", "0,1")
    assert res.exit_code == 1


def test_dims_csv_contract():
    res = run("dims", "--spec", "m_hl_transpose:2,1")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 5
    assert lines[1] == 'dims,"m_hl_transpose:2,1",y+,,4,4,ok'


def test_dims_reads_a_file(tmp_path):
    path = tmp_path / "b.json"
    sg.save_algebra(sg.m_hh_symplectic(1), path)
    res = run("dims", "--input", str(path))
    assert res.exit_code == 0
    assert ",y-,,,1,ok" in res.output


def test_dims_needs_exactly_one_source():
    assert run("dims").exit_code == 1
    assert run("dims", "--spec", "m_hl_transpose:1,0", "--input", "x.json").exit_code == 1


def test_threshold_and_witness(tmp_path):
    wit = tmp_path / "w.json"
    res = run("threshold", "--spec", "m_hl_transpose:1,1", "--kind", "y+",
              "--witness-out", str(wit))
    assert res.exit_code == 0
    assert ",y+," in res.output and res.output.strip().endswith("3,ok")
    doc = json.loads(wit.read_text())
    assert doc["rank"] == 2 and doc["kind"] == "y+"
    assert all("/" in c for v in doc["assignment"] for c in v)


def test_identity_command():
    res = run("identity", "--spec", "m_hl_transpose:1,1", "--rank", "3", "--kind", "y+")
    assert res.exit_code == 0 and ",yes," in res.output
    # with the connector the symmetric slots no longer commute away
    res = run("identity", "--spec", "m_hl_transpose:1,1", "--rank", "2", "--kind", "y+")
    assert res.exit_code == 0 and ",no," in res.output
    # deleting the only gap leaves a commutator of diagonal matrices
    res = run("identity", "--spec", "m_hl_transpose:1,1", "--rank", "2", "--kind", "y+",
              "--deleted", "0")
    assert res.exit_code == 0 and ",yes," in res.output


def test_identity_witness_file_replays(tmp_path):
    wit = tmp_path / "w.json"
    res = run("identity", "--spec", "m_hl_transpose:1,1", "--rank", "2", "--kind", "y+",
              "--witness-out", str(wit))
    assert res.exit_code == 0 and ",no," in res.output
    doc = json.loads(wit.read_text())
    assert (doc["rank"], doc["kind"], doc["deleted"]) == (2, "y+", [])
    member = sg.capelli_member(doc["rank"], doc["kind"], doc["deleted"])
    assert doc["slot_kinds"] == list(member.slot_kinds)
    assignment = [core.to_sparse([Fraction(c) for c in v]) for v in doc["assignment"]]
    value = core.to_sparse([Fraction(c) for c in doc["value"]])
    assert value and sg.evaluate_sparse(sg.m_hl_transpose(1, 1), member, assignment) == value


def test_codim_command_and_cap():
    res = run("codim", "--spec", "m_hl_transpose:1,1", "--n", "2", "--brute")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[1].startswith('codim-graded,"m_hl_transpose:1,1",,2,,')
    assert lines[2].startswith('codim-brute,')
    assert run("codim", "--spec", "m_hl_transpose:1,0", "--n", "9").exit_code == 2


def test_codim_ordinary_command():
    # Cat(6) - C(5,3) + 1 - 2^5 = 132 - 10 + 1 - 32
    res = run("codim", "--ordinary", "--spec", "m_hl_transpose:1,1", "--n", "5")
    assert res.exit_code == 0
    assert res.output.strip().splitlines()[1] == 'codim-ordinary,"m_hl_transpose:1,1",,5,,91,ok'


def test_codim_table_has_roots():
    res = run("codim", "--spec", "m_hl_transpose:1,0", "--n", "3", "--table")
    assert res.exit_code == 0
    assert "codim-root" in res.output and "1.000000" in res.output


def test_exponent_command():
    res = run("exponent", "--spec", "m_hl_transpose:1,1+m_hl_transpose:1,0")
    assert res.exit_code == 0
    assert ",4,ok" in res.output and "is-reduced" in res.output and "False" in res.output


def test_verify_paper_suite_and_exit():
    res = run("verify-paper", "--suite", "peirce")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == HEADER
    assert all(line.endswith(",ok") for line in lines[1:])
    assert run("verify-paper", "--suite", "bogus").exit_code == 1


def test_verify_paper_builds_under_the_dimension_cap():
    # the dims grid holds m_hl_transpose:2,2, dim 16: (16 + 1)^2 = 289 entries
    res = run("--cap-evals", "100", "verify-paper", "--suite", "dims")
    assert res.exit_code == 2
    assert res.output.startswith("refused: dimension ")


def test_reports_are_byte_deterministic():
    a = run("verify-paper", "--suite", "exponent")
    b = run("verify-paper", "--suite", "exponent")
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_block_ordering_search_exits_two():
    res = run("exponent", "--spec", "+".join(["m_hl_transpose:1,0"] * 12))
    assert res.exit_code == 2
    assert "block ordering search" in res.output


def test_cap_evals_flag_reaches_the_engine():
    res = run("--cap-evals", "1", "codim", "--spec", "m_hl_transpose:1,1", "--n", "3")
    assert res.exit_code == 2
    assert "refused" in res.output


def test_unknown_usage_exits_one():
    assert run("threshold", "--spec", "m_hl_transpose:1,1", "--kind", "q+").exit_code == 1
    assert run("no-such-command").exit_code == 1


BAD_INPUTS = [
    ("identity", "--spec", "m_hl_transpose:1,1", "--rank", "0", "--kind", "any"),
    ("identity", "--spec", "m_hl_transpose:1,1", "--rank", "3", "--kind", "y+", "--deleted", "5"),
    ("codim", "--spec", "m_hl_transpose:1,1", "--n", "0"),
    ("codim", "--spec", "m_hl_transpose:1,1", "--n", "0", "--table"),
    ("dims", "--spec", "tensor[m_hl_transpose:1,1|m_hl_transpose:1,0]"),
    ("dims", "--spec", "tensor[m_hl_transpose:1,1|m_hl_transpose:1,1]"),
    ("dims", "--spec", "commutative_nilpotent:0"),
    ("dims", "--spec", "commutative_nilpotent:1,2"),
    ("dims", "--spec", "noncommutative_nilpotent:3"),
    # long bad specs, quoted in part
    ("dims", "--spec", "x" * 3000),
    ("dims", "--spec", "commutative_nilpotent:" + ",".join(["1"] * 2001)),
    ("dims", "--spec", "commutative_nilpotent:" + "k" * 3000),
    ("dims", "--spec", "noncommutative_nilpotent:" + "3" * 3000),
]
BAD_OPTIONS = [
    ("ut", "--components", "m_hl_transpose:1,0", "--shifts", "0,1"),
    ("ut", "--components", "m_hl_transpose:1,0", "--shifts", "2"),
    ("--cap-n", "0", "codim", "--spec", "m_hl_transpose:1,1", "--n", "2"),
    ("--cap-evals", "-5", "dims", "--spec", "m_hl_transpose:1,1"),
    ("codim", "--spec", "m_hl_transpose:1,1", "--n", "2", "--ordinary", "--table"),
    ("codim", "--spec", "m_hl_transpose:1,1", "--n", "2", "--table", "--brute"),
    ("codim", "--spec", "m_hl_transpose:1,1", "--n", "2", "--ordinary", "--brute"),
]


class Document:
    """An interchange document, written to a file where it stands in an argument list."""

    M11 = sg.to_interchange(sg.m_hl_transpose(1, 1))

    def __init__(self, name, doc=None, /, **changes):
        self.name, self.doc = name, {**self.M11, **changes} if doc is None else doc

    def __repr__(self):
        return self.name


# M_{1,1} (dim 4) with one field broken, read by `dims --input`
BAD_DOCUMENTS = [
    ("dims", "--input", doc)
    for doc in (
        Document("zero_denominator", structure=[[0, 0, 0, "1/0"]]),
        Document("coefficient_syntax", involution=[[0, 0, "one"]]),
        Document("index_out_of_range", dim=1, labels=["a"], grading=[0],
                 structure=[[0, 0, 5, "1/1"]], involution=[[0, 0, "1/1"]], wedderburn=None),
        Document("negative_index", structure=[[-1, 0, 0, "1/1"]]),
        Document("involution_index", involution=[[0, 4, "1/1"]]),
        Document("wedderburn_index", wedderburn={"blocks": [{"indices": [0, 9]}], "radical": []}),
        Document("labels_length", labels=["a"]),
        Document("grading_bit", grading=[0, 2, 2, 0]),
        Document("dim_type", dim="4"),
        Document("not_an_object", [1]),
        Document("missing_key", {k: v for k, v in Document.M11.items() if k != "involution"}),
        Document("involution_type", involution=5),
        Document("structure_arity", structure=[[0, 0, 0]]),
        Document("involution_arity", involution=[[0, 0, "1/1", 1]]),
        Document("structure_entry_type", structure=[5]),
        Document("coefficient_exponent", structure=[[0, 0, 0, "1e999999999"]]),
        # long bad values, quoted in part: 40 characters and the length
        Document("long_structure_entry", structure=[[0] * 5000]),
        Document("long_index", structure=[["7" * 5000, 0, 0, "1/1"]]),
        Document("long_grading_bit", grading=[0, "1" * 5000, 0, 0]),
        Document("long_dim", dim="4" * 5000),
    )
]


def materialize(args, directory):
    """The argument list with each Document written to a file and replaced by its path."""
    out = []
    for a in args:
        if isinstance(a, Document):
            path = directory / f"{a.name}.json"
            path.write_text(json.dumps(a.doc))
            a = str(path)
        out.append(a)
    return out


@pytest.mark.parametrize("args", BAD_INPUTS + BAD_OPTIONS + BAD_DOCUMENTS)
def test_bad_ranks_and_degrees_exit_one_with_a_message(args, tmp_path):
    res = CliRunner().invoke(main, materialize(args, tmp_path))
    assert res.exit_code == 1
    assert res.output.startswith("error: ") and len(res.output.strip()) > len("error:")
    assert res.output.count("\n") == 1 and len(res.output.encode()) < 200


def test_an_over_long_coefficient_is_quoted_in_part(tmp_path):
    # 5,000 digits exceed int()'s digit limit: the message quotes a bounded
    # prefix and names the limit
    doc = Document("long_coefficient", structure=[[0, 0, 0, "9" * 5000]])
    res = CliRunner().invoke(main, materialize(["dims", "--input", doc], tmp_path))
    assert res.exit_code == 1
    assert res.output.startswith("error: bad coefficient '99999")
    assert f"more than {sys.get_int_max_str_digits()} digits" in res.output
    assert len(res.output) < 200


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.integers() | st.floats() | st.text(max_size=5)
    | st.sampled_from(["1/0", "-3/2", "1/1", "x/2", ""]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
FUZZ_BASES = [sg.to_interchange(sg.m_hl_transpose(1, 1)), sg.to_interchange(sg.noncommutative_nilpotent())]


def positions(node):
    """Every (container, key) position inside a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from positions(child)


@st.composite
def mutated_documents(draw):
    """A valid document with one to three fields deleted, replaced by another
    JSON value (a type swap, an out-of-range index or a bad coefficient), or
    lengthened or shortened by one item."""
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(positions(doc))
        if not slots:
            break
        parent, key = draw(st.sampled_from(slots))
        op = draw(st.sampled_from(["delete", "replace", "grow", "shrink"]))
        if op == "delete":
            del parent[key]
        elif op == "replace":
            parent[key] = draw(JSON_VALUES)
        elif isinstance(parent[key], list):
            if op == "grow":
                parent[key].append(draw(JSON_VALUES))
            elif parent[key]:
                parent[key].pop()
    if draw(st.integers(0, 19)) == 0:
        doc = draw(JSON_VALUES)
    return doc


@given(mutated_documents())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_exit_cleanly(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["dims", "--input", str(path)])
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exit_code == 0 or res.output.strip()


# spec strings from the grammar's pieces: family tokens with the right arity
# or a wrong one, nested, summed and cut short. Integers are small, or large
# enough that every valid term holding one is refused.
SPEC_INTS = st.integers(-1, 3) | st.just(10000)
SPEC_PARAMS = SPEC_INTS.map(str) | st.sampled_from(["t", "s", "", " 1", "x", "1.5", "--2", "\u00b2"])
SPEC_TOKENS = (
    st.builds("m_hl_transpose:{},{}".format, SPEC_INTS, SPEC_INTS)
    | st.builds("m_hl_exchange:{},{}".format, SPEC_INTS, SPEC_INTS)
    | st.builds("{}:{},{}".format, st.sampled_from(["mn_cmn_star", "mn_cmn_dagger"]), SPEC_INTS, st.sampled_from("tsx"))
    | st.builds("{}:{}".format, st.sampled_from(["m_hh_symplectic", "mn_cmn_exchange", "commutative_nilpotent"]), SPEC_INTS)
    | st.sampled_from(["noncommutative_nilpotent", "commutative_nilpotent", "", "m_hl", "tensor", "one_sided[]"])
    | st.builds(
        lambda name, sep, params: name + sep + ",".join(params),
        st.sampled_from(["m_hl_transpose", "mn_cmn_star", "noncommutative_nilpotent", "commutative_nilpotent"]),
        st.sampled_from([":", "::", "["]),
        st.lists(SPEC_PARAMS, max_size=3),
    )
)
SPECS = st.recursive(
    SPEC_TOKENS,
    lambda inner: st.builds("{}+{}".format, inner, inner)
    | st.builds("one_sided[{}]".format, inner)
    | st.builds("tensor[{}|{}]".format, inner, inner)
    | st.builds("tensor[{}]".format, inner)
    | st.builds(lambda text, cut: text[:cut], inner, st.integers(0, 24)),
    max_leaves=4,
)


@given(st.sampled_from(["dims", "build"]), SPECS)
@settings(max_examples=200, deadline=None)
def test_malformed_specs_exit_cleanly(command, spec):
    args = ["dims", "--spec", spec] if command == "dims" else ["build", spec]
    res = CliRunner().invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exit_code == 0 or res.output.strip()


def test_large_specs_are_refused_before_construction(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("constructor called")

    for name in ("build_family", "commutative_nilpotent", "one_sided_radical_extension", "tensor_nilpotent_extension"):
        monkeypatch.setattr(checks, name, unbuilt)
    monkeypatch.setattr(cli, "ut_star", unbuilt)
    # dimensions 4e8, 14,400, 2 + 1e4 * 3 and 3 * 14,400, then a glueing whose
    # blocks (2 * 70^2) pass and whose radical (2 * 70 * 70) does not
    for args in (
        ["dims", "--spec", "m_hl_transpose:10000,10000"],
        ["build", "m_hl_transpose:60,60"],
        ["dims", "--spec", "commutative_nilpotent:2+tensor[m_hl_transpose:50,50|commutative_nilpotent:2]"],
        ["codim", "--spec", "one_sided[m_hl_transpose:60,60]", "--n", "2"],
        ["ut", "--components", "m_hl_transpose:35,35+m_hl_transpose:35,35"],
    ):
        res = run(*args)
        assert res.exit_code == 2, res.output
        assert res.output.startswith("refused: dimension ")
    # 3600: (3600 + 1)^2 is under the default cap, so construction is reached
    res = run("dims", "--spec", "m_hl_transpose:30,30")
    assert res.exit_code == 1 and "constructor called" in repr(res.exception)


def test_dimension_cap_is_exact():
    # dim 4: the radical elimination of the unit extension has 25 entries
    checks.check_dimension(4, sg.RunConfig(cap_evals=25))
    with pytest.raises(SizeCapError, match=r"25 entries\): 25 units of work in this call, over the cap 24"):
        checks.check_dimension(4, sg.RunConfig(cap_evals=24))
    checks.check_dimension(3600)
    with pytest.raises(SizeCapError):
        checks.check_dimension(14400)


def test_loaded_documents_meet_the_dimension_cap(tmp_path):
    path = tmp_path / "m11.json"
    path.write_text(json.dumps(sg.to_interchange(sg.m_hl_transpose(1, 1))))
    assert run("--cap-evals", "25", "dims", "--input", str(path)).exit_code == 0
    res = run("--cap-evals", "24", "dims", "--input", str(path))
    assert res.exit_code == 2 and res.output.startswith("refused: dimension 4 ")


def test_codimension_cap_is_reached_past_the_dimension_cap():
    # 25 entries for the radical pass the cap; the contents share one budget,
    # charged up front: 2^(y+ slots) * 3! for each content with no y- slot, 156 in all
    res = run("--cap-evals", "30", "codim", "--spec", "m_hl_transpose:1,1", "--n", "3")
    assert res.exit_code == 2
    assert "degree-3 codimension sweep of 156 evaluations: 156 units of work in this call, over the cap 30" in res.output


def test_barred_sweep_refusal_reports_its_work(tmp_path):
    path = tmp_path / "ut3.json"
    components = "+".join(["m_hl_transpose:1,1"] * 3)
    assert run("--out", str(path), "ut", "--components", components).exit_code == 0
    # UT3's z+ search sweeps rank 5 for its witness (2,452 units) and then
    # rank 6 at the radical bound (3,089 units), 5,541 in all, the last of them
    # in the rank-6 proof's whole-basis sweep: the refusal counts both ranks
    res = run("--cap-evals", "5540", "threshold", "--input", str(path), "--kind", "z+")
    assert res.exit_code == 2
    assert res.output.startswith("refused: barred Capelli sweep of kind z+ at rank 6: ")
    work = int(res.output.split(": ")[2].split()[0])
    assert work == 5_541
    res = run("--cap-evals", "5541", "threshold", "--input", str(path), "--kind", "z+")
    assert res.exit_code == 0
    assert res.output.splitlines()[1].endswith(",z+,10,,6,ok")


def scaled_m11(tmp_path, coeff):
    """M_{1,1} on the basis s*e_ij, whose structure constants are all s = coeff."""
    doc = sg.to_interchange(sg.m_hl_transpose(1, 1))
    doc["structure"] = [[i, j, k, coeff] for i, j, k, _ in doc["structure"]]
    path = tmp_path / f"m11_{coeff.replace('/', '_')}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def without_wedderburn(tmp_path):
    """M_{1,1} as an interchange file with no Wedderburn block data."""
    doc = sg.to_interchange(sg.m_hl_transpose(1, 1))
    del doc["wedderburn"]
    path = tmp_path / "m11_no_blocks.json"
    path.write_text(json.dumps(doc))
    return str(path)


# Runs each argument list read from stdin through the CLI in this one process
# and writes [exit code, stderr] per list to stdout as JSON.
PROBE_CHILD = """
import contextlib, io, json, sys, traceback
from stargraded import cli
results = []
for args in json.load(sys.stdin):
    err, code = io.StringIO(), None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            cli.main(args, prog_name="stargraded", standalone_mode=True)
        except SystemExit as e:
            code = e.code
        except Exception:
            traceback.print_exc()
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_bad_input_messages_do_not_depend_on_asserts(optimize, tmp_path):
    src = str(Path(sg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    flags = ["-O"] if optimize else []
    no_blocks = ("exponent", "--input", without_wedderburn(tmp_path))
    probes = BAD_INPUTS[:3] + BAD_INPUTS[4:] + BAD_OPTIONS + [no_blocks] + BAD_DOCUMENTS
    argvs = [materialize(args, tmp_path) for args in probes]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", PROBE_CHILD],
        input=json.dumps(argvs), capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(probes)
    for args, (code, stderr) in zip(probes, results):
        assert code == 1, (args, stderr)
        assert stderr.startswith("error: ") and len(stderr.strip()) > len("error:"), (args, stderr)
        assert "Traceback" not in stderr, (args, stderr)


def test_codim_reads_fraction_structure_constants(tmp_path):
    res = run("codim", "--input", scaled_m11(tmp_path, "1/5"), "--n", "3")
    assert res.exit_code == 0 and res.output.strip().endswith(",57,ok")


def test_failed_self_check_exits_three(monkeypatch):
    monkeypatch.setattr(core, "validate", lambda A: ["planted violation"])
    res = run("ut", "--components", "m_hl_transpose:1,0+m_hl_transpose:1,0")
    assert res.exit_code == 3 and "planted violation" in res.output


MEMORY_CHILD = """
import sys
from stargraded import cli

def exhausted(*args, **kwargs):
    raise MemoryError({message!r})

cli.{name} = exhausted
cli.main(sys.argv[1:], prog_name="stargraded")
"""


@pytest.mark.parametrize("name, message, args, line", [
    ("hom_dims", "", ["dims", "--spec", "m_hl_transpose:2,1"], "refused: out of memory"),
    ("admissible_exponent", "planted", ["exponent", "--spec", "m_hl_transpose:1,1"],
     "refused: out of memory: planted"),
])
def test_out_of_memory_is_a_refusal(name, message, args, line):
    # exit 2 with one line, not the traceback and exit 1 of an uncaught error
    src = str(Path(sg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_CHILD.format(name=name, message=message), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [line]
    assert "Traceback" not in proc.stderr + proc.stdout


def test_a_radical_bound_below_the_threshold_exits_three(monkeypatch, tmp_path):
    # UT3's z+ threshold is 6; a bound of 5 is contradicted by the sweep at rank 5
    path = tmp_path / "ut3.json"
    components = "+".join(["m_hl_transpose:1,1"] * 3)
    assert run("--out", str(path), "ut", "--components", components).exit_code == 0
    monkeypatch.setattr(analysis, "radical_bound", lambda A, kind: 5)
    res = run("threshold", "--input", str(path), "--kind", "z+")
    assert res.exit_code == 3
    (line,) = res.output.splitlines()
    assert line.startswith("internal inconsistency: rank 5 is not an identity")


def test_high_rank_identity_is_answered_without_building_terms():
    # 12! = 479,001,600 terms, but the rank exceeds the algebra's dimension
    res = run("identity", "--spec", "m_hl_transpose:1,1", "--rank", "12", "--kind", "any")
    assert res.exit_code == 0 and ",yes," in res.output
