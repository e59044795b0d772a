"""The packed preLie frame: the brace and the enveloping product of a
preLie table (`prelie.PreLieSpec`) on packed keys.

A frame packs the basis as `coproduct._Packing` packs generators: ids in id
order, each with a field of the bit length of the largest degree a value
holds, so a monomial product is one integer addition.  The brace peels the
highest field of its right argument; the enveloping product takes the
lowest field of its left factor and sums over the unshuffle coproduct of
its right one (Guin and Oudom, 2008): the packing's `product_of` on
``full``, the coproduct frame's engine, each basis element primitive.
Nothing here checks a degree: `prelie` checks every argument against the
truncation before it packs one, so no value outgrows its fields, and a
frame is only as wide as the widest value asked of it.
"""

from __future__ import annotations

from collections import Counter

from .coproduct import _nonzero, _Packing, _spread


class _PreLieFrame(_Packing):
    """spec's basis packed for values of degree up to ``degree``: each
    product x . y as {field of z: c} in ``acts[field of y][field of x]``,
    the memos ``braces`` by (field of i, packed right) and ``products`` by
    (packed a, packed b), filled only by calls that succeed, and ``full``,
    each basis element primitive.  Only `_frame_of` builds one."""

    def __init__(self, spec, degree: int):
        super().__init__(sorted(spec.basis), degree)
        field, self.acts = self.field, {}
        for (i, j), value in spec.products.items():
            self.acts.setdefault(field[j], {})[field[i]] = {field[m[0]]: c for m, c in value.items()}
        self.full.update((f, {f: 1, f << self.shift: 1}) for f in field.values())
        self.braces, self.products = {}, {}

    def brace(self, x: int, right: int) -> dict:
        """b_x acted on by packed ``right``, packed: peel its highest field
        b, right = B * b, and take (b_x acted on by B) acted on by b minus
        b_x acted on by (B acted on by b), the derivation summed over the
        distinct factors f of B, each weighted by its multiplicity."""
        value = self.braces.get((x, right))
        if value is None:
            if not right:
                value = {x: 1}
            else:
                b = 1 << self.width * ((right.bit_length() - 1) // self.width)
                rest, acts, brace = right - b, self.acts.get(b, {}), self.brace
                parts = [(0, c, acts[m]) for m, c in brace(x, rest).items() if m in acts]
                for j, e in Counter(self.monomial(rest)).items():
                    f = self.field[j]
                    parts += [(0, -e * d, brace(x, rest - f + y)) for y, d in acts.get(f, {}).items()]
                value = _nonzero(_spread({}, parts))
            self.braces[x, right] = value
        return value

    def mul(self, a: int, b: int) -> dict:
        """The enveloping product of packed a and b: a unit factor gives the
        other, else the lowest field x of a = x * a' gives the sum over the
        unshuffle coproduct b1 (x) b2 of b of (x acted on by b1) * (a' * b2)."""
        if not a or not b:
            return {a + b: 1}
        value = self.products.get((a, b))
        if value is None:
            x = 1 << self.width * (((a & -a).bit_length() - 1) // self.width)  # lowest field
            rest, brace, mul, shift, slot = a - x, self.brace, self.mul, self.shift, self.slot
            parts = []
            for key, c in self.product_of(self.full, b).items():
                hit = brace(x, key & slot)
                if hit:
                    tail = mul(rest, key >> shift)
                    parts += [(m, c * c1, tail) for m, c1 in hit.items()]
            value = self.products[a, b] = _nonzero(_spread({}, parts))
        return value


def _frame_of(spec, degree: int = 0) -> _PreLieFrame:
    """spec's frame if it holds values of ``degree`` and of the truncation,
    else a new one, now spec's, holding all its fields can."""
    frame = spec._frame
    need = max(degree, spec.truncation)
    if frame is None or frame.degree < need:
        frame = spec._frame = _PreLieFrame(spec, (1 << need.bit_length()) - 1)
    return frame
