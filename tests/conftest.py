import json
from pathlib import Path

import pytest

from sympdec.abgroup import FgAbGroup
from sympdec.induced import AbHom
from sympdec.intmatrix import IntMatrix

GOLDEN = Path(__file__).with_name("data") / "induced_golden.json"


@pytest.fixture(scope="session")
def golden_homs() -> list[AbHom]:
    """Every distinct homomorphism (source, target, matrix) in the induced golden record."""
    homs = {}
    for _, body, _ in json.loads(GOLDEN.read_text())["outcomes"]:
        if body is None:
            continue
        for h in body["candidates"].values() if body.get("z_dependent") else [body]:
            key = json.dumps([h["source"], h["target"], h["matrix"]])
            if key not in homs:
                data = [x for row in h["matrix"] for x in row]
                homs[key] = AbHom(FgAbGroup(h["source"]), FgAbGroup(h["target"]),
                                  IntMatrix(len(h["target"]), len(h["source"]), data))
    return list(homs.values())
