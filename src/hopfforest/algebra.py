"""Exact free-module arithmetic: rational scalars, multiset monomials,
polynomials and rank-k tensors.

Coefficients are ``fractions.Fraction`` (always in lowest terms, positive
denominator), monomials are sorted multisets of positive generator indices,
and polynomials/tensors are finitely supported coefficient maps that never
store zeros, so ``==`` is structural equality.  Every value is immutable
after construction and safe to share between threads.  (The specs that
memoize derived values are not: see ``hopfspec.spec_memo``.)
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import InputError

#: Exact scalar type of the ground field (characteristic zero).
Rational = Fraction

Scalar = Union[Fraction, int]

#: A finite multiset of generator indices, stored as a sorted tuple.
Multiset = tuple[int, ...]


def multiset(indices: Iterable[int]) -> Multiset:
    """Normalize an iterable of generator indices to a sorted multiset."""
    out = tuple(sorted(indices))
    for i in out:
        if not isinstance(i, int) or isinstance(i, bool) or i < 1:
            raise InputError(f"generator indices must be positive integers, got {i!r}")
    return out


@dataclass(frozen=True)
class Monomial:
    """A commutative product of generators ``b_i``, stored as a sorted index
    multiset.  The empty multiset is the unit monomial (the scalar 1)."""

    indices: Multiset = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", multiset(self.indices))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.indices + other.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    @property
    def is_unit(self) -> bool:
        return not self.indices

    @property
    def sort_key(self) -> tuple[int, Multiset]:
        # Canonical term order: shorter products first, then index-lexicographic.
        return (len(self.indices), self.indices)

    def render(self) -> str:
        return "".join(f"b{i}" for i in self.indices) or "1"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Monomial({self.indices!r})"


UNIT = Monomial()


def mono(*indices: int) -> Monomial:
    """Convenience constructor: ``mono(1, 2, 2)`` is the monomial b1*b2*b2."""
    return Monomial(indices)


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    raise InputError(f"coefficients must be integers or Fractions, got {c!r}")


def coefficient_text(c: Fraction) -> str:
    """A coefficient as "p" or "p/q", the one place coefficients become text;
    past Python's integer-to-text digit limit it raises InputError."""
    try:
        return str(c)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise InputError(f"coefficient too big to print: over {limit} digits") from None


TermMap = Mapping[Monomial, Scalar]
Terms = Union[TermMap, Iterable[tuple[Monomial, Scalar]]]


class Polynomial:
    """A finitely supported Fraction-linear combination of monomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Terms = ()) -> None:
        acc: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for m, c in items:
            if not isinstance(m, Monomial):
                raise InputError(f"polynomial keys must be Monomial, got {m!r}")
            acc[m] = acc.get(m, Fraction(0)) + _as_fraction(c)
        object.__setattr__(self, "_terms", {m: c for m, c in acc.items() if c})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({UNIT: Fraction(1)})

    @classmethod
    def single(cls, m: Monomial, c: Scalar = 1) -> "Polynomial":
        return cls({m: c})

    @classmethod
    def variable(cls, i: int) -> "Polynomial":
        """The generator b_i as a polynomial."""
        return cls({mono(i): Fraction(1)})

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical monomial order."""
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key)

    def coefficient(self, m: Monomial) -> Fraction:
        return self._terms.get(m, Fraction(0))

    @property
    def constant(self) -> Fraction:
        """Coefficient of the unit monomial (the counit of the polynomial)."""
        return self._terms.get(UNIT, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, Polynomial):
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    m = m1 * m2
                    out[m] = out.get(m, Fraction(0)) + c1 * c2
            return Polynomial(out)
        c = _as_fraction(other)
        return Polynomial({m: c0 * c for m, c0 in self._terms.items()})

    def __rmul__(self, other: Scalar) -> "Polynomial":
        return self * other

    def render(self) -> str:
        return _render_terms(self.terms(), Monomial.render)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial<{self.render()}>"


TensorKey = tuple[Monomial, ...]


class Tensor:
    """A finitely supported linear combination of k-fold tensor products of
    monomials.  Tensors of distinct ranks are distinct values; there is no
    implicit flattening."""

    __slots__ = ("_rank", "_terms")

    def __init__(
        self,
        rank: int,
        terms: Union[Mapping[TensorKey, Scalar], Iterable[tuple[TensorKey, Scalar]]] = (),
    ) -> None:
        if not isinstance(rank, int) or rank < 1:
            raise InputError(f"tensor rank must be a positive integer, got {rank!r}")
        acc: dict[TensorKey, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, c in items:
            key = tuple(key)
            if len(key) != rank or not all(isinstance(m, Monomial) for m in key):
                raise InputError(f"tensor key {key!r} does not have rank {rank}")
            acc[key] = acc.get(key, Fraction(0)) + _as_fraction(c)
        object.__setattr__(self, "_rank", rank)
        object.__setattr__(self, "_terms", {k: c for k, c in acc.items() if c})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Tensor is immutable")

    @property
    def rank(self) -> int:
        return self._rank

    @classmethod
    def zero(cls, rank: int) -> "Tensor":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "Tensor":
        """The unit tensor 1 (x) ... (x) 1."""
        return cls(rank, {(UNIT,) * rank: Fraction(1)})

    @classmethod
    def single(cls, key: TensorKey, c: Scalar = 1) -> "Tensor":
        return cls(len(key), {tuple(key): c})

    @classmethod
    def outer(cls, *factors: Polynomial) -> "Tensor":
        """Tensor product of polynomials, one per slot."""
        if not factors:
            raise InputError("outer product needs at least one factor")
        terms: list[tuple[TensorKey, Fraction]] = [((), Fraction(1))]  # grows rank
        for p in factors:
            terms = [
                (key + (m,), c * cm)
                for key, c in terms
                for m, cm in p.terms()
            ]
        return cls(len(factors), terms)

    def terms(self) -> list[tuple[TensorKey, Fraction]]:
        return sorted(
            self._terms.items(), key=lambda t: tuple(m.sort_key for m in t[0])
        )

    def coefficient(self, key: TensorKey) -> Fraction:
        return self._terms.get(tuple(key), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self._rank == other._rank and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._rank, frozenset(self._terms.items())))

    def __add__(self, other: "Tensor") -> "Tensor":
        if other._rank != self._rank:
            raise InputError(f"tensor rank mismatch: {self._rank} vs {other._rank}")
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return Tensor(self._rank, out)

    def __neg__(self) -> "Tensor":
        return Tensor(self._rank, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self + (-other)

    def __mul__(self, other: Union["Tensor", Scalar]) -> "Tensor":
        if isinstance(other, Tensor):
            if other._rank != self._rank:
                raise InputError(
                    f"tensor rank mismatch: {self._rank} vs {other._rank}"
                )
            out: dict[TensorKey, Fraction] = {}
            for k1, c1 in self._terms.items():
                for k2, c2 in other._terms.items():
                    k = tuple(m1 * m2 for m1, m2 in zip(k1, k2))
                    out[k] = out.get(k, Fraction(0)) + c1 * c2
            return Tensor(self._rank, out)
        c = _as_fraction(other)
        return Tensor(self._rank, {k: c0 * c for k, c0 in self._terms.items()})

    def __rmul__(self, other: Scalar) -> "Tensor":
        return self * other

    def multiplied_out(self) -> Polynomial:
        """Multiply all slots together (the k-fold product applied to the tensor)."""
        out: dict[Monomial, Fraction] = {}
        for key, c in self._terms.items():
            m = Monomial(tuple(i for f in key for i in f.indices))
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(out)

    def render(self) -> str:
        return _render_terms(
            self.terms(), lambda key: " (x) ".join(m.render() for m in key)
        )

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Tensor<rank {self._rank}: {self.render()}>"


def _render_terms(terms, body) -> str:
    # "p/q" coefficients rendered by Fraction; "-1 b3 + 10 b1b2 - 15 b1b1b1".
    if not terms:
        return "0"
    chunks: list[str] = []
    for key, c in terms:
        piece = coefficient_text(abs(c))
        piece = piece if _is_unit_key(key) else f"{piece} {body(key)}"
        if not chunks:
            chunks.append(piece if c > 0 else f"-{piece}")
        else:
            chunks.append(("+ " if c > 0 else "- ") + piece)
    return " ".join(chunks)


def _is_unit_key(key) -> bool:
    # Only bare unit monomials collapse to their coefficient; tensor keys keep
    # their slot structure ("1 (x) b2") so the rank stays visible.
    return isinstance(key, Monomial) and key.is_unit
