"""The JSON documents of both table kinds as dicts: the oracle that
`hopfforest.hopfspec.save_spec` and `hopfforest.prelie.save_prelie` must
match byte for byte as ``json.dumps(doc, indent=2) + "\\n"``, and the
starting point of tests that edit a document field by field.

Nothing in the package imports this module.  CI imports it with
``PYTHONPATH=tests``.
"""

from __future__ import annotations

from typing import Iterable

from hopfforest.algebra import coefficient_text
from hopfforest.hopfspec import CoproductSpec, Generator
from hopfforest.prelie import PreLieSpec


def generators_to_list(generators: Iterable[Generator]) -> list[dict]:
    """The JSON form of a generator (or basis) list, sorted by id."""
    out = []
    for g in sorted(generators, key=lambda g: g.id):
        item: dict = {"id": g.id, "degree": g.degree}
        if g.label is not None:
            item["label"] = g.label
        out.append(item)
    return out


def spec_to_dict(spec: CoproductSpec) -> dict:
    gens = generators_to_list(spec.generators.values())
    entries = [
        {
            "source": e.source,
            "left": e.left,
            "right": list(e.right),
            "coeff": coefficient_text(e.coeff),
        }
        for e in spec.entries
    ]
    return {"name": spec.name, "generators": gens, "coproduct": entries}


def prelie_to_dict(spec: PreLieSpec) -> dict:
    products = [
        {"left": i, "right": j,
         "result": [{"id": m[0], "coeff": coefficient_text(c)} for m, c in value.terms()]}
        for (i, j), value in sorted(spec.products.items())
    ]
    return {"name": spec.name, "basis": generators_to_list(spec.basis.values()),
            "products": products, "truncation": spec.truncation}
