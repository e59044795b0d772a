"""Coproduct engine: the packing, whose `product_of` extends a map
multiplicatively (every monomial coproduct on both frames, and
`antipode_poly`), the packed frame over a table, iterated reduced
coproducts, and the reports (coassociativity, counit, antipode convolution).

A frame numbers what it starts from and all it reaches through left and
right legs of table rows.  Each gets, in id order, a field of width bits,
the bit length of the largest degree a value must hold, so a monomial is the
sum of its generators' fields and a product one addition that never
carries; a rank-k key packs its k slots shift bits apart, slot 0 lowest.
Rows are read in the basis beta_j = b_j / scale, scale the common
denominator of the rows reached, so a row (i; l; J) of coefficient c becomes
the integer c' = c * scale^|J|; the rescaling is an algebra isomorphism, so
no value changes; a packed monomial is decoded once per frame.  It stays
because it pays: on the table's own Fraction rows, the grafting-6 dual
benchmark workload ran about 18 % slower.

A monomial's full coproduct is the product of its generators' (the
coproduct is an algebra morphism; on the preLie frame every basis element is
primitive), filled quotient by quotient so the Python stack stays flat; its
reduced coproduct drops the two primitive terms.
Iterating the reduced coproduct ends with zero once the rank exceeds the
degree, which makes the degree-many-step antipode formulas finite.  As the
coproduct is an algebra morphism, coassociativity and counit hold on every
monomial once they hold on the generators, and so does the convolution
identity of an antipode route, whose values are multiplicative on monomials
as the algebra is commutative: all three reports visit generators only, on
their frame, and the convolution reads a route's packed values by its
method name.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import Monomial, Polynomial, Tensor, mono
from .algebra import _positive_int
from .errors import InputError
from .hopfspec import CoproductSpec, _below, graded_monomials


def _spread(acc: dict, parts) -> dict:
    """acc plus c * c2 at key + k2 for (key, c, terms) in parts and (k2, c2)
    in terms: packed keys add where monomials multiply.  Zeros stay."""
    get = acc.get
    for key, c, terms in parts:
        for k2, c2 in terms.items():
            k2 += key
            acc[k2] = get(k2, 0) + c * c2
    return acc


def _nonzero(acc: dict) -> dict:
    return acc if all(acc.values()) else {k: c for k, c in acc.items() if c}


class _Packing:
    """Generator ids numbered in id order, each with a field of width bits,
    the bit length of ``degree``, the largest degree a value must hold; a
    pair a (x) b packs as a + (b << shift), ``slot`` masking a.  Values read
    in the basis b_j / scale.  A packed monomial is decoded once, into
    ``decoded``; ``full`` holds the full coproducts, seeded by each frame."""

    scale = 1

    def __init__(self, ids: list[int], degree: int):
        self.ids, self.degree, self.width = ids, degree, degree.bit_length()
        self.field = {j: 1 << self.width * n for n, j in enumerate(ids)}
        self.shift = self.width * len(ids)
        self.slot = (1 << self.shift) - 1
        self.decoded: dict[int, Monomial] = {}
        self.full = {0: {0: 1}}  # the unit's coproduct

    def product_of(self, values: dict, b: int) -> dict:
        """Packed monomial b under the multiplicative map whose unit and
        generator-field values ``values`` holds, memoized there with every
        quotient met: each is its quotient's times its lowest generator's."""
        width, todo, m = self.width, [], b
        while m not in values:
            unit = 1 << width * (((m & -m).bit_length() - 1) // width)
            todo.append((m, unit))
            m -= unit
        value = values[m]
        for m, unit in reversed(todo):
            parts = ((k, c, values[unit]) for k, c in value.items())
            value = values[m] = _nonzero(_spread({}, parts))
        return value

    def pack(self, m) -> int:
        return sum(map(self.field.__getitem__, m))

    def monomial(self, m: int) -> Monomial:
        """Packed monomial m, decoded once."""
        return self.decoded[m] if m in self.decoded else self._monomial(m)

    def _monomial(self, m: int) -> Monomial:
        """Packed monomial m decoded, and kept in ``decoded``: fields read in id order."""
        width, ids, indices, key = self.width, self.ids, [], m
        while key:
            n = ((key & -key).bit_length() - 1) // width
            e = key >> width * n & (1 << width) - 1
            indices += [ids[n]] * e
            key -= e << width * n
        monomial = self.decoded[m] = tuple.__new__(Monomial, indices)
        return monomial

    def polynomial(self, packed: dict, lift: int = 1) -> Polynomial:
        """Packed c * beta_M as c * scale^lift / scale^|M| * b_M, summed: at
        lift 1 the packed image of some beta_i read as that of b_i = scale *
        beta_i, at lift 0 a packed element read as itself."""
        scale, decoded, decode = self.scale, self.decoded, self._monomial
        lifted, out = scale ** lift, []
        for m, c in packed.items():
            m = decoded[m] if m in decoded else decode(m)
            if scale > 1:
                c = Fraction(c * lifted, scale ** len(m))
            out.append((m, c))
        return Polynomial._checked(out)


class _Frame(_Packing):
    """The numbering of what ``starts`` reach, for values of degree up to
    ``degree`` and the largest start's: each row as (c', l, J, packed b_l,
    packed b_J) and each generator's full coproduct, both written in one
    pass over its rows, each route's packed values, tree counts and reduced
    coproducts of monomials met.  Only `frame_over` builds one."""

    def __init__(self, spec: CoproductSpec, starts, degree: int):
        ids = sorted(_below(spec, starts, "both"))
        for i in starts:
            if not _positive_int(i):
                raise InputError(f"generator indices must be positive integers, got {i!r}")
        super().__init__(ids, max([degree, *map(spec.degree, starts)]))
        self.scale = scale = lcm(*(e.coeff.denominator for j in ids for e in spec.entries_for(j)))
        field, shift, get, full = self.field, self.shift, self.field.__getitem__, self.full
        self.rows = rows = {}
        for j, b in field.items():  # each generator's rows and full coproduct
            row, coproduct = rows[j], full[b] = [], {b: 1, b << shift: 1}
            for _, left, right, c in spec.entries_for(j):
                # c' = c * scale^|J| is an integer: c's denominator divides scale
                c = c.numerator * scale ** len(right) // c.denominator
                l, r = field[left], sum(map(get, right))
                row.append((c, left, right, l, r))
                coproduct[l + (r << shift)] = c
        self.forest, self.dyson_salam, self.bogoliubov, self.counts, self.reduced = {}, {}, {}, {}, {}

    def _reduced_of(self, b: int) -> dict:
        """The reduced coproduct of packed monomial b, not yet memoized: its
        full coproduct without b (x) 1 and 1 (x) b.  The unit has none."""
        if not b:
            raise InputError("reduced coproduct needs a polynomial with zero constant "
                             "term, got constant 1")
        primitive, full = (b, b << self.shift), self.product_of(self.full, b)
        value = self.reduced[b] = {k: c for k, c in full.items() if k not in primitive}
        return value

    def splice(self, iterate: dict, leg: int) -> dict:
        """The packed rank-k terms of ``iterate`` with slot ``leg`` replaced
        by its reduced coproduct: rank k + 1, the slots above moved up one."""
        shift, reduced, reduced_of = self.shift, self.reduced, self._reduced_of
        low = shift * leg
        below, slot = (1 << low) - 1, self.slot
        acc: dict = {}
        get = acc.get
        for key, c in iterate.items():
            b = key >> low & slot
            cut = reduced.get(b)
            if cut is None:
                cut = reduced_of(b)
            key = (key & below) + (key >> low + shift << low + 2 * shift)
            for k2, c2 in cut.items():
                k2 = key + (k2 << low)
                acc[k2] = get(k2, 0) + c * c2
        return _nonzero(acc)

    def packed(self, p: Polynomial) -> dict:
        """p in the basis beta: c * b_M is c * scale^|M| * beta_M."""
        pack, scale = self.pack, self.scale
        return {pack(m): c * scale ** len(m) for m, c in p.items()}

    def tensor(self, packed: dict, rank: int) -> Tensor:
        """Packed rank-``rank`` terms in the table's basis."""
        shift, slot, scale = self.shift, self.slot, self.scale
        decoded, decode = self.decoded, self._monomial
        out = []
        for key, c in packed.items():
            slots = []
            for _ in range(rank):
                m = key & slot
                key >>= shift
                slots.append(decoded[m] if m in decoded else decode(m))
            if scale > 1:
                c = Fraction(c, scale ** sum(map(len, slots)))
            out.append((tuple(slots), c))
        return Tensor._checked(rank, out)


def frame_over(spec: CoproductSpec, starts, degree: int = 0) -> _Frame:
    """spec's frame if it numbers every start and holds values of degree
    ``degree``, else a new one, now spec's, over its ids and starts at the
    larger degree, so alternating calls settle on one.  A bool never hits."""
    frame = spec._frame
    if frame is not None:
        if frame.degree >= degree:
            field = frame.field
            for i in starts:  # a plain loop keeps a route's one-id hit cheap
                if not (_positive_int(i) and i in field):
                    break
            else:
                return frame
        starts, degree = [*frame.ids, *starts], max(frame.degree, degree)
    frame = spec._frame = _Frame(spec, starts, degree)
    return frame


def _poly_frame(spec: CoproductSpec, p: Polynomial) -> tuple[_Frame, dict]:
    """spec's frame over p's generators, for p's degree, which bounds every
    slot's, and p packed in its basis.  Only a Polynomial is read."""
    if not isinstance(p, Polynomial):
        raise InputError(f"expected a Polynomial, got {type(p).__name__}")
    bound = max((spec.monomial_degree(m) for m, _ in p.items()), default=0)
    frame = frame_over(spec, {j for m, _ in p.items() for j in m}, bound)
    return frame, frame.packed(p)


def coproduct_poly(spec: CoproductSpec, p: Polynomial) -> Tensor:
    """Full coproduct, extended multiplicatively from generators."""
    frame, packed = _poly_frame(spec, p)
    parts = ((0, c, frame.product_of(frame.full, b)) for b, c in packed.items())
    return frame.tensor(_spread({}, parts), 2)


def iterated_reduced_poly(spec: CoproductSpec, p: Polynomial, k: int) -> Tensor:
    """The rank-k iterated reduced coproduct: k = 1 is the element itself,
    k = 2 the reduced coproduct, and each further rank applies the reduced
    coproduct to the last slot.  By coassociativity the result does not
    depend on which slot each step expands."""
    if not _positive_int(k):
        raise InputError(f"tensor rank must be >= 1, got {k}")
    frame, iterate = _poly_frame(spec, p)
    for leg in range(k - 1):
        if not iterate:
            break
        iterate = frame.splice(iterate, leg)
    return frame.tensor(iterate, k)


def iterated_reduced(spec: CoproductSpec, i: int, k: int) -> Tensor:
    """Rank-k iterated reduced coproduct of generator i: k = 1 is b_i as a
    rank-1 tensor, k = 2 the table row, each further rank one more splice."""
    return iterated_reduced_poly(spec, Polynomial.variable(i), k)


def monomials_up_to(spec: CoproductSpec, max_degree: int) -> list[Monomial]:
    """All monomials of degree <= max_degree, including the unit, in
    canonical order; none below 0."""
    _check_degree_bound(max_degree)
    return [m for m, _ in graded_monomials(spec.generators.values(), max_degree)]


def convolution_check(spec: CoproductSpec, max_degree: int, method: str) -> list[str]:
    """Check (S * id)(b) = 0 on every generator b of degree <= max_degree,
    where * is convolution through the full coproduct and S the antipode of
    ``method``, whose packed route values are read off its memo on one
    frame over those generators.  The algebra is commutative, so the
    convolution is an algebra morphism and a monomial fails exactly when
    one of its generators does.  S(beta_i) + S(1) beta_i + sum of
    c' S(beta_l) beta_J is summed packed, decoded only on failure.
    Returns failure descriptions; empty means the antipode property holds."""
    from .antipode import packed_route  # which imports this module

    route = packed_route(method)
    ids = _generators_up_to(spec, max_degree)
    if not ids:
        return []
    frame = frame_over(spec, ids)  # one frame for every route value read
    packed = {0: {0: 1}} | {i: route(spec, i)[1] for i in ids}  # S(1) = 1
    problems: list[str] = []
    for i in ids:
        parts = [(0, 1, packed[i]), (frame.field[i], 1, packed[0])]
        acc = _spread({}, parts + [(r, c, packed[l]) for c, l, _, _, r in frame.rows[i]])
        if any(acc.values()):
            got = frame.polynomial(_nonzero(acc))
            problems.append(f"convolution failed on {mono(i)}: got {got}, expected 0")
    return problems


def _check_degree_bound(max_degree: object) -> None:
    """Raise unless max_degree is an int and not a bool; below 1 it bounds
    every generator out, so a check up to it checks nothing."""
    if not isinstance(max_degree, int) or isinstance(max_degree, bool):
        raise InputError(f"max_degree must be an integer, got {max_degree!r}")


def _generators_up_to(spec: CoproductSpec, max_degree: int) -> list[int]:
    """The ids of the generators of degree <= max_degree, by degree, then id."""
    _check_degree_bound(max_degree)
    found = sorted((g.degree, g.id) for g in spec.generators.values())
    return [i for d, i in found if d <= max_degree]


def coassociativity_report(spec: CoproductSpec, max_degree: int) -> list[str]:
    """Check (reduced (x) id) vs (id (x) reduced) after one reduced
    coproduct, on every generator of degree <= max_degree.  Expanding the
    full coproduct into its primitive and reduced parts, the full iterates
    (coproduct (x) id) and (id (x) coproduct) of b differ by exactly this
    difference: the reduced coproduct of a monomial drops two terms of
    coefficient 1, and those legs cancel.  Both full iterates are algebra
    morphisms, so they agree on all monomials when they agree on the
    generators.  Both sides are compared packed, on spec's frame."""
    problems: list[str] = []
    ids = _generators_up_to(spec, max_degree)
    frame = frame_over(spec, ids)
    for i in ids:
        once = frame.splice({frame.field[i]: 1}, 0)
        if frame.splice(once, 0) != frame.splice(once, 1):
            problems.append(f"coassociativity failed on {mono(i)}")
    return problems


def counit_report(spec: CoproductSpec, max_degree: int) -> list[str]:
    """Check (counit (x) id) and (id (x) counit) both give the identity on
    every generator of degree <= max_degree: on spec's frame, the terms of
    its packed full coproduct with slot 0, then slot 1, the unit.  This
    holds by construction for every table that passes `validate`: a row's
    left leg is a generator and its right leg is nonempty, so either counit
    keeps only the primitive part.  Both sides are algebra morphisms, so it
    holds on all monomials."""
    problems: list[str] = []
    ids = _generators_up_to(spec, max_degree)
    frame = frame_over(spec, ids)
    shift, slot = frame.shift, frame.slot
    for i in ids:
        once = frame.full[frame.field[i]].items()
        left = _nonzero({k >> shift: c for k, c in once if not k & slot})
        right = _nonzero({k & slot: c for k, c in once if not k >> shift})
        for side, got in (("left", left), ("right", right)):
            if got != {frame.field[i]: 1}:
                got = frame.polynomial(got)
                problems.append(f"{side} counit failed on {mono(i)}: got {got}")
    return problems
