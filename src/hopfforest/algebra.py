"""Exact free-module arithmetic: rational scalars, multiset monomials,
polynomials and rank-k tensors.

Monomials are sorted tuples of positive generator indices (a ``tuple``
subclass, so hashing and dict hits stay in C), and polynomials/tensors are
finitely supported coefficient maps that never store zeros, so ``==`` is
structural equality.  A value stores a coefficient as an ``int`` until a
denominator appears and as a ``fractions.Fraction`` (lowest terms,
positive denominator) after that; every public read (``terms``,
``coefficient``) returns a ``Fraction``.  Since ``int`` and ``Fraction``
compare and hash alike, the stored form never shows in ``==`` or
``hash``.  Every value is immutable after construction and safe to
share between threads.  (The specs, which memoize derived values, are
not: see ``hopfspec.CoproductSpec`` and ``prelie.PreLieSpec``.)
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from typing import Iterable, Union

from .errors import InputError

Scalar = Union[Fraction, int]

#: A finite multiset of generator indices, stored as a sorted tuple.
Multiset = tuple[int, ...]


def _positive_int(x: object) -> bool:
    """Whether x is an int >= 1 that is not a bool: the test of every id,
    degree, rank and count of the package."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def multiset(indices: Iterable[int]) -> Multiset:
    """Normalize an iterable of generator indices to a sorted multiset.
    Each index is checked before the sort, so ids of mixed type raise
    InputError, not the sort's TypeError."""
    out = list(indices)
    for i in out:
        if not _positive_int(i):
            raise InputError(f"generator indices must be positive integers, got {i!r}")
    out.sort()
    return tuple(out)


class Monomial(tuple):
    """A commutative product of generators ``b_i``: a ``tuple`` subclass
    holding the sorted generator indices.  The empty tuple is the unit
    monomial (the scalar 1).

    The constructor checks the indices; a product does not re-check them,
    since they were checked when its factors were built.  Hash and equality
    are tuple's, so a monomial equals (and hashes like) the plain tuple of
    its indices; ``Polynomial`` and ``Tensor`` still refuse keys that are
    not monomials.  The tuple's own ``+`` and ``*`` (joining and repeating)
    raise ``TypeError``: the only product is monomial times monomial."""

    __slots__ = ()

    def __new__(cls, indices: Iterable[int] = ()) -> "Monomial":
        return tuple.__new__(cls, multiset(indices))

    def __reduce__(self):
        return (Monomial, (tuple(self),))

    def __mul__(self, other: "Monomial") -> "Monomial":
        """The product monomial.  Anything but a Monomial raises TypeError,
        the unit included as a plain tuple; a unit factor returns the other
        factor itself, and any other product sorts the joined indices once."""
        if type(other) is not Monomial:
            self._refuse(other)
        if not other:
            return self
        if not self:
            return other
        indices = [*self, *other]
        indices.sort()
        return tuple.__new__(Monomial, indices)

    def _refuse(self, other: object):
        # raise, not NotImplemented: CPython would then fall back to tuple's
        # repetition and joining, which must never pass for monomial arithmetic
        raise TypeError(f"unsupported operand for Monomial: {other!r}")

    __add__ = __radd__ = __rmul__ = _refuse

    #: The sorted index multiset as a plain tuple.
    indices = property(tuple)

    @property
    def is_unit(self) -> bool:
        return not self

    def render(self) -> str:
        return "".join(f"b{i}" for i in self) or "1"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Monomial({tuple(self)!r})"


def _sorted_monomial(indices: Iterable[int]) -> Monomial:
    """The monomial of already-checked indices, in any order: a product, a
    slice or a copy of the indices of checked monomials or table rows."""
    return tuple.__new__(Monomial, sorted(indices))


UNIT = Monomial()


def mono(*indices: int) -> Monomial:
    """Convenience constructor: ``mono(1, 2, 2)`` is the monomial b1*b2*b2."""
    return Monomial(indices)


def _scalar(c: Scalar) -> Scalar:
    """A coefficient in stored form: an int, or a Fraction with a
    denominator other than 1.  Anything else (a float, a bool) raises."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int) and not isinstance(c, bool):
        return int(c)
    raise InputError(f"coefficients must be integers or Fractions, got {c!r}")


def _fraction(c: Scalar) -> Fraction:
    """A stored coefficient in its public form."""
    return c if isinstance(c, Fraction) else Fraction(c)


def coefficient_text(c: Fraction) -> str:
    """A coefficient as "p" or "p/q", the one place coefficients become text;
    past Python's integer-to-text digit limit it raises InputError."""
    try:
        return str(c)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise InputError(f"coefficient too big to print: over {limit} digits") from None


def _accumulate(pairs: Iterable[tuple[object, Scalar]]) -> dict:
    """The one place (key, coefficient) pairs become a value's terms: each
    coefficient goes to stored form (a float or a bool raises), coefficients
    of repeated keys add up, and no zero is ever stored: a zero is not
    inserted, and a key whose sum reaches zero is deleted in place."""
    acc: dict = {}
    get = acc.get
    for key, c in pairs:
        if type(c) is not int:
            c = _scalar(c)
        before = get(key)
        if before is not None:
            c += before
            if not c:
                del acc[key]
                continue
        elif not c:
            continue
        acc[key] = c
    return acc


class _CoefficientMap:
    """The body Polynomial and Tensor share: a finitely supported map from
    keys to coefficients that never stores a zero and never changes once
    built.  A coefficient is stored as an int until a denominator appears;
    ``items`` yields that stored form, in no particular order, for the
    package's internal sums, while ``terms`` sorts and returns Fractions.

    A subclass supplies only what differs: the key check ``_key``, the key
    product ``_key_mul``, the key text ``_key_text``, ``_like`` (a value of
    the same kind and rank), and the term order ``_order`` of ``terms`` and
    ``render``.  ``__init__``, ``__add__``, ``__mul__`` and ``terms`` are
    bound on each subclass too, so per-class timings and counts can tell
    polynomial work from tensor work.

    Only the public constructors check keys.  A value derived from values
    that passed that check (a sum, product, negation or scalar multiple
    here, and the package's internal sums elsewhere) is built by
    ``_checked``, which skips ``_key`` and keeps the coefficient check."""

    __slots__ = ("_terms",)

    def __init__(
        self, terms: Union[Mapping[object, Scalar], Iterable[tuple[object, Scalar]]] = ()
    ) -> None:
        """The public constructor: checks each key with ``_key``, then sums
        the pairs through `_accumulate`."""
        key_of = self._key
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        object.__setattr__(self, "_terms", _accumulate((key_of(k), c) for k, c in pairs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _check_rank(self, other: "_CoefficientMap") -> None:
        if other._rank != self._rank:
            raise InputError(f"tensor rank mismatch: {self._rank} vs {other._rank}")

    def __add__(self, other):
        self._check_rank(other)
        return self._like(chain(self._terms.items(), other._terms.items()))

    def __mul__(self, other):
        """Product with a value of the same kind, or with a scalar."""
        if not isinstance(other, _CoefficientMap):
            c = _scalar(other)
            return self._like((k, c0 * c) for k, c0 in self._terms.items())
        self._check_rank(other)
        key_mul = self._key_mul
        return self._like(
            (key_mul(k1, k2), c1 * c2)
            for k1, c1 in self._terms.items()
            for k2, c2 in other._terms.items()
        )

    def __neg__(self):
        return self._like((k, -c) for k, c in self._terms.items())

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, other: Scalar):
        return self * other

    def terms(self) -> list:
        """(key, Fraction) pairs in the canonical order ``_order``."""
        return [(key, _fraction(c)) for key, c in sorted(self._terms.items(), key=self._order)]

    def items(self):
        """The (key, coefficient) pairs in no particular order, each
        coefficient an int or a Fraction: the read for internal sums."""
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._rank == other._rank and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._rank, frozenset(self._terms.items())))

    def render(self) -> str:
        # "p" or "p/q" from the stored coefficients, in the order of `terms`:
        # "-1 b3 + 10 b1b2 - 15 b1b1b1".  Only a bare unit monomial collapses
        # to its coefficient; tensor keys keep their slot structure
        # ("1 (x) b2") so the rank stays visible.
        chunks: list[str] = []
        for key, c in sorted(self._terms.items(), key=self._order):
            piece = coefficient_text(abs(c))
            if key != UNIT:
                piece = f"{piece} {self._key_text(key)}"
            if not chunks:
                chunks.append(piece if c > 0 else f"-{piece}")
            else:
                chunks.append(("+ " if c > 0 else "- ") + piece)
        return " ".join(chunks) or "0"

    def __str__(self) -> str:
        return self.render()


class Polynomial(_CoefficientMap):
    """A finitely supported Fraction-linear combination of monomials."""

    __slots__ = ()
    _rank = None  # a polynomial is not a tensor of any rank
    _key_mul = staticmethod(operator.mul)
    _key_text = staticmethod(Monomial.render)
    #: Canonical term order: shorter products first, then index-lexicographic.
    _order = staticmethod(lambda t: (len(t[0]), t[0]))

    __init__ = _CoefficientMap.__init__
    __add__ = _CoefficientMap.__add__
    __mul__ = _CoefficientMap.__mul__
    terms = _CoefficientMap.terms

    @staticmethod
    def _key(m: Monomial) -> Monomial:
        if not isinstance(m, Monomial):
            raise InputError(f"polynomial keys must be Monomial, got {m!r}")
        return m

    @classmethod
    def _checked(cls, terms: Iterable[tuple[Monomial, Scalar]]) -> "Polynomial":
        """A polynomial of pairs whose keys are monomials of checked values:
        no ``_key`` call."""
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", _accumulate(terms))
        return out

    def _like(self, terms: Iterable[tuple[Monomial, Scalar]]) -> "Polynomial":
        return Polynomial._checked(terms)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({UNIT: 1})

    @classmethod
    def single(cls, m: Monomial, c: Scalar = 1) -> "Polynomial":
        return cls({m: c})

    @classmethod
    def variable(cls, i: int) -> "Polynomial":
        """The generator b_i as a polynomial."""
        return cls({mono(i): 1})

    def coefficient(self, m: Monomial) -> Fraction:
        return _fraction(self._terms.get(m, 0))

    def __repr__(self) -> str:
        return f"Polynomial<{self.render()}>"


TensorKey = tuple[Monomial, ...]


class Tensor(_CoefficientMap):
    """A finitely supported linear combination of k-fold tensor products of
    monomials.  Tensors of distinct ranks are distinct values; there is no
    implicit flattening."""

    __slots__ = ("_rank",)

    def __init__(
        self,
        rank: int,
        terms: Union[Mapping[TensorKey, Scalar], Iterable[tuple[TensorKey, Scalar]]] = (),
    ) -> None:
        if not _positive_int(rank):
            raise InputError(f"tensor rank must be a positive integer, got {rank!r}")
        object.__setattr__(self, "_rank", rank)
        super().__init__(terms)

    def _key(self, key: TensorKey) -> TensorKey:
        key = tuple(key)
        if len(key) != self._rank or not all(isinstance(m, Monomial) for m in key):
            raise InputError(f"tensor key {key!r} does not have rank {self._rank}")
        return key

    @staticmethod
    def _key_mul(k1: TensorKey, k2: TensorKey) -> TensorKey:
        return tuple(map(operator.mul, k1, k2))

    @staticmethod
    def _key_text(key: TensorKey) -> str:
        return " (x) ".join(m.render() for m in key)

    #: Canonical term order: the monomials' order, slot by slot.
    _order = staticmethod(lambda t: tuple((len(m), m) for m in t[0]))

    @classmethod
    def _checked(cls, rank: int, terms: Iterable[tuple[TensorKey, Scalar]]) -> "Tensor":
        """A rank-`rank` tensor of pairs whose keys are tuples of `rank`
        monomials of checked values: no ``_key`` call."""
        out = object.__new__(cls)
        object.__setattr__(out, "_rank", rank)
        object.__setattr__(out, "_terms", _accumulate(terms))
        return out

    def _like(self, terms: Iterable[tuple[TensorKey, Scalar]]) -> "Tensor":
        return Tensor._checked(self._rank, terms)

    @property
    def rank(self) -> int:
        return self._rank

    @classmethod
    def single(cls, key: TensorKey, c: Scalar = 1) -> "Tensor":
        return cls(len(key), {tuple(key): c})

    def coefficient(self, key: TensorKey) -> Fraction:
        return _fraction(self._terms.get(tuple(key), 0))

    __add__ = _CoefficientMap.__add__
    __mul__ = _CoefficientMap.__mul__
    terms = _CoefficientMap.terms

    def multiplied_out(self) -> Polynomial:
        """Multiply all slots together (the k-fold product applied to the tensor)."""
        return Polynomial._checked(
            (_sorted_monomial(chain.from_iterable(key)), c)
            for key, c in self._terms.items()
        )

    def __repr__(self) -> str:
        return f"Tensor<rank {self._rank}: {self.render()}>"
