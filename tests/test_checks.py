"""Spec string grammar and the reference check suites."""

import hashlib
import json

import pytest

import stargraded as sg
from stargraded.checks import (
    DIMS_GRID,
    SUITES,
    parse_algebra_spec,
    parse_family_token,
    parse_ut_spec,
    run_suite,
    ut_subject,
)
from stargraded.cli import csv_text


def test_parse_family_token_round_trip():
    tag = parse_family_token("mn_cmn_star:2,s")
    assert tag.name == sg.MN_CMN_STAR
    assert tag.params == (2, "s")
    tag = parse_family_token("m_hl_transpose:2,1")
    assert tag.params == (2, 1)


def test_parse_direct_sum():
    A = parse_algebra_spec("m_hl_transpose:1,1+m_hl_transpose:1,0")
    assert A.dim == 5
    assert len(A.wedderburn.blocks) == 2


def test_parse_nilpotent_terms():
    assert parse_algebra_spec("commutative_nilpotent:3").dim == 3
    assert parse_algebra_spec("noncommutative_nilpotent").dim == 4


def test_parse_nested_constructions():
    A = parse_algebra_spec("one_sided[m_hl_transpose:1,1]")
    assert A.dim == 12
    B = parse_algebra_spec("tensor[m_hl_transpose:1,1|commutative_nilpotent:1]")
    assert B.dim == 8
    C = parse_algebra_spec("tensor[m_hl_transpose:1,1|noncommutative_nilpotent]")
    assert C.dim == 20
    D = parse_algebra_spec("one_sided[m_hl_transpose:1,1]+commutative_nilpotent:1")
    assert D.dim == 13


def test_top_level_split_respects_brackets():
    A = parse_algebra_spec("one_sided[m_hl_transpose:1,1]+one_sided[m_hl_transpose:1,0]")
    assert A.dim == 12 + 3
    with pytest.raises(ValueError, match="simple"):
        # the tensor base must be a simple algebra, not a direct sum
        parse_algebra_spec("tensor[m_hl_transpose:1,0+m_hl_transpose:1,0|commutative_nilpotent:1]")


def test_parse_errors():
    for bad in ("", "m_hl_transpose:1,1+", "tensor[m_hl_transpose:1,1]", "one_sided[]",
                "tensor[a|b|c]", "what[m_hl_transpose:1,1]", "m_hl_transpose:1,1]"):
        with pytest.raises(ValueError):
            parse_algebra_spec(bad)


def test_parse_ut_spec_and_subject():
    spec = parse_ut_spec("m_hl_transpose:1,0+mn_cmn_star:1,t", "0,1")
    assert len(spec.components) == 2
    assert spec.shifts == (0, 1)
    subject = ut_subject("m_hl_transpose:1,0+mn_cmn_star:1,t", "0,1")
    assert subject.startswith("ut[") and subject.endswith("]")


def test_suite_names():
    assert set(SUITES) == {"dims", "thresholds", "sandwich", "peirce", "exponent", "counterexamples"}
    with pytest.raises(ValueError):
        run_suite("no_such_suite")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_reference_suite_passes(name):
    rows = run_suite(name)
    assert rows
    bad = [r for r in rows if r.status != "ok"]
    assert bad == []


# sha256 of the verify-paper --suite all report
REPORT_SHA256 = "ec9e87a4070f5a49da2a7c5d0b7673b18a1b210b19cde54e988943ad324899ed"


def test_run_all_collects_every_suite():
    rows = run_suite("all")
    assert len(rows) == sum(len(run_suite(n)) for n in SUITES)
    assert hashlib.sha256(csv_text(rows).encode()).hexdigest() == REPORT_SHA256


# sha256 of the `build SPEC` document of every grid family
GRID_DOC_SHA256 = {
    "m_hl_transpose:1,0": "0b77aaebd7d5913f7c6379d31e57fdbc2d0c3ec0df9aeaaf213ae0069ee5d947",
    "m_hl_transpose:1,1": "a38f0f114148254371f5b62341cd7f06a7b7c759087fe0b7bb4b24c13d32e5e3",
    "m_hl_transpose:2,1": "9b70f35fe3e0f5c3eb590d391671753950f31cc13745c39dcdf7f1f096238114",
    "m_hl_transpose:2,2": "51537089627fb5d42922d897253196e48c99fba8179f979cef37b12283979dfd",
    "m_hh_symplectic:1": "c6c2c0966196919c7afb66f1b6dc760e7a6e9f5f69334c2f51df05f70725ae5c",
    "m_hh_symplectic:2": "bf1816f364a1f9f855b1f81ae0763de713def6aafec0a46390287abc6ef39570",
    "m_hl_exchange:1,0": "692ff3bdc7b7c60ee5f6238a49fa85c999d829d5499903c75b374aed0d2bb8d3",
    "m_hl_exchange:1,1": "c4bf429078517ce0d7c0b72c88606afb86f377dad6cebc8b6be082091a9e7edd",
    "m_hl_exchange:2,1": "0e8a7a81b1bf800b82142ad9fa39b4f5932c893e8baa6a345fa4333c5a690c1d",
    "m_hl_exchange:2,2": "71a003366e1a4e1cb52484282db3b6546785bae71d290c249a99d57ca453f7ca",
    "mn_cmn_star:1,t": "35f2ef8ade499a5fe0b5940cac11f084d68d0afa3be7ffd086f298c9ebefb6b2",
    "mn_cmn_star:2,t": "36a92ecfa0171af875e642a4f4c21524a8fd68c5ed0b0b0520b88f1b308c88b2",
    "mn_cmn_star:2,s": "d3997666392e77b327bb096d61189c284afc1d29226b7a58974872d7b3144168",
    "mn_cmn_dagger:1,t": "9ab8143590ea0da707fb76b347339aeba248264bcbe7b65c76dcf8b3b609c37b",
    "mn_cmn_dagger:2,t": "cad2bd4635f017fe307f7e5686499442bf792c1a193b27cd26c46c9d932994d9",
    "mn_cmn_dagger:2,s": "8ed998cab5a0b22d740e76b1a9a64c7d298ff7e3fb7b654d49f8f2740f65f8df",
    "mn_cmn_exchange:1": "2849f20500338885e30e840761e3487e3e6cfc0c4185d94be0df3aef081b8014",
    "mn_cmn_exchange:2": "ba6cd8b4e35891ddba9a651064d6e95b144271f02ab233356dc0c39f1393164c",
}


@pytest.mark.parametrize("spec", [s for s, _ in DIMS_GRID])
def test_grid_interchange_documents_are_pinned(spec):
    doc = json.dumps(sg.to_interchange(parse_algebra_spec(spec)), indent=1) + "\n"
    assert hashlib.sha256(doc.encode()).hexdigest() == GRID_DOC_SHA256[spec]


# sha256 of the `build SPEC` document of each construction that assembles an
# involution from other algebras': direct sum, both extensions, a nilpotent factor
CONSTRUCTION_DOC_SHA256 = {
    "m_hl_transpose:1,1+mn_cmn_star:1,t": "2194f875ccde009a114a0bd7a9f25e06667777bbb50c12ac0e12e496d6765d2c",
    "one_sided[m_hl_transpose:1,1]": "ed4448689c61688238c354bbad515bfd1f84ee8c8ace2aba88ca5779cca885a2",
    "tensor[m_hl_transpose:1,1|noncommutative_nilpotent]": "823833fa3b41eb75e3bae1709ab02455e5be5a84ad673d8503776e1a60eb120b",
    "tensor[mn_cmn_star:1,t|commutative_nilpotent:2]": "a4a6d30028eb82f4f873dfbcf746f14f26fba645e647a36c48620c368cf38009",
    "commutative_nilpotent:2": "ce3ac286ed1db56591e419fa2d67b7e2dbfc338b45db6f7aa10a30037e023361",
}


@pytest.mark.parametrize("spec", sorted(CONSTRUCTION_DOC_SHA256))
def test_construction_interchange_documents_are_pinned(spec):
    doc = json.dumps(sg.to_interchange(parse_algebra_spec(spec)), indent=1) + "\n"
    assert hashlib.sha256(doc.encode()).hexdigest() == CONSTRUCTION_DOC_SHA256[spec]


# sha256 of the `ut --components C` document of two glueings
UT_DOC_SHA256 = {
    "m_hl_transpose:1,1+m_hl_transpose:1,1": "fbdb08f5397ecd5ce72a5d9d7804cb249bed2c34b18bd38f549cc91b5a9963a1",
    "mn_cmn_star:2,t+m_hl_transpose:2,1": "1f9d6a790c730ee1456a372ad749eb447144f15b3548c3f99a0de997dd93bfb1",
}


@pytest.mark.parametrize("components", sorted(UT_DOC_SHA256))
def test_ut_interchange_documents_are_pinned(components):
    doc = json.dumps(sg.to_interchange(sg.ut_star(parse_ut_spec(components, ""))), indent=1) + "\n"
    assert hashlib.sha256(doc.encode()).hexdigest() == UT_DOC_SHA256[components]
