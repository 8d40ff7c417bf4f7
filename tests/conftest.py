import json
import os
from pathlib import Path

import pytest
from sympy import QQ, I, exp, pi
from sympy.polys.matrices import DomainMatrix

import sympdec
from sympdec.abgroup import FgAbGroup
from sympdec.induced import AbHom
from sympdec.intmatrix import IntMatrix
from sympdec.matrix import ExactMatrix

GOLDEN = Path(__file__).with_name("data") / "induced_golden.json"

# the tests' subprocesses import the package these tests import, installed or not
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(sympdec.__file__).parents[1]), os.environ.get("PYTHONPATH")]))

# sympy's Q(z), z = exp(i pi/4), for oracles that do not use our arithmetic
Q_ZETA8 = QQ.algebraic_field(exp(I * pi / 4))


def over_q_zeta8(m: ExactMatrix) -> DomainMatrix:
    """m as a sympy DomainMatrix over Q_ZETA8, entry by entry from its numerators.

    An entry's numerators are its coefficients of 1, z, z^2, z^3 reduced by
    z^4 = -1, and a field element is its coefficient list, highest degree
    first, reduced by the field's minimal polynomial; the two agree only
    because that polynomial is x^4 + 1.
    """
    assert Q_ZETA8.mod.to_list() == [1, 0, 0, 0, 1]
    w = 4 * m.cols
    rows = [[Q_ZETA8([QQ(c, m.den) for c in reversed(m.num[p:p + 4])])
             for p in range(i * w, (i + 1) * w, 4)] for i in range(m.rows)]
    return DomainMatrix(rows, (m.rows, m.cols), Q_ZETA8)


@pytest.fixture(scope="session")
def golden_homs() -> list[AbHom]:
    """Every distinct homomorphism in the induced golden record, in order of appearance."""
    homs = {}
    for _, body, _ in json.loads(GOLDEN.read_text())["outcomes"]:
        if body is None:
            continue
        for h in body["candidates"].values() if body.get("z_dependent") else [body]:
            data = [x for row in h["matrix"] for x in row]
            homs[AbHom(FgAbGroup(h["source"]), FgAbGroup(h["target"]),
                       IntMatrix(len(h["target"]), len(h["source"]), data))] = None
    return list(homs)
