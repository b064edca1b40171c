"""Build the classified simple algebras, inspect their graded star structure,
and round-trip one of them through the interchange format."""

import json
import os
import tempfile

import stargraded as sg
from stargraded.core import sparse_star

GRID = [
    ("transpose type, h=2 l=1", sg.m_hl_transpose(2, 1)),
    ("symplectic type, h=1", sg.m_hh_symplectic(1)),
    ("exchange type, h=1 l=1", sg.m_hl_exchange(1, 1)),
    ("central extension, n=2 sign -", sg.mn_cmn(2, "t", "-")),
    ("central extension, n=2 sign +", sg.mn_cmn(2, "t", "+")),
    ("doubled central extension, n=1", sg.mn_cmn_exchange(1)),
]


def describe(name, A):
    probs = sg.validate(A)
    assert probs == [], probs
    yp, ym, zp, zm = sg.hom_dims(A)
    print(f"{name}")
    print(f"  dim {A.dim}, simple: {sg.is_star_graded_simple(A)}")
    print(f"  even symmetric {yp}, even skew {ym}, odd symmetric {zp}, odd skew {zm}")
    k = next(i for i in range(A.dim) if A.grading[i] == 0)
    img = " + ".join(f"{c}*{A.labels[i]}" for i, c in sorted(sparse_star(A, {k: 1}).items()))
    print(f"  star({A.labels[k]}) = {img}")


def main():
    for name, A in GRID:
        describe(name, A)
        print()

    A = sg.m_hh_symplectic(1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.json")
        sg.save_algebra(A, path)
        B = sg.load_algebra(path)
    same = sg.to_interchange(A) == sg.to_interchange(B)
    print(f"interchange round trip through a JSON file: {'stable' if same else 'BROKEN'}")
    doc = sg.to_interchange(A)
    print(f"document keys: {sorted(doc)}, {len(json.dumps(doc))} bytes")


if __name__ == "__main__":
    main()
