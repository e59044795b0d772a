"""Independent checks for benchmark outputs.

Nothing here imports hopfforest: every expected value is derived from the
JSON documents and the printed text alone, so a fault in the package cannot
also hide itself in its own check.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, factorial, prod

_MONOMIAL = re.compile(r"(?:b\d+)+")
_COEFF = re.compile(r"-?\d+(?:/\d+)?")


def parse_polynomial(text: str) -> dict[tuple[int, ...], Fraction]:
    """Parse the CLI's text rendering, e.g. ``-1 b3 + 10 b1b2 - 15 b1b1b1``,
    into {sorted index tuple: coefficient}.  Raises ValueError on anything
    that does not follow the documented rendering."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    out: dict[tuple[int, ...], Fraction] = {}
    pos = 0
    sign = 1
    while pos < len(tokens):
        if out or pos:
            if tokens[pos] not in ("+", "-"):
                raise ValueError(f"expected + or - at token {pos} of {text!r}")
            sign = 1 if tokens[pos] == "+" else -1
            pos += 1
        if pos >= len(tokens) or not _COEFF.fullmatch(tokens[pos]):
            raise ValueError(f"expected a coefficient at token {pos} of {text!r}")
        coeff = sign * Fraction(tokens[pos])
        pos += 1
        key: tuple[int, ...] = ()
        if pos < len(tokens) and _MONOMIAL.fullmatch(tokens[pos]):
            key = tuple(sorted(int(i) for i in tokens[pos][1:].split("b")))
            pos += 1
        if key in out or coeff == 0:
            raise ValueError(f"repeated monomial or zero term in {text!r}")
        out[key] = coeff
    return out


def evaluate(poly: dict[tuple[int, ...], Fraction], point: dict[int, Fraction]) -> Fraction:
    """Value of a parsed polynomial with b_i set to point[i]."""
    return sum(
        (c * prod((point[i] for i in key), start=Fraction(1)) for key, c in poly.items()),
        start=Fraction(0),
    )


def _series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(order + 1 - i):
                out[i + j] += x * b[j]
    return out


def lagrange_antipode(n: int, point: dict[int, Fraction]) -> Fraction:
    """S(b_n) of the composition Hopf algebra evaluated at b_i = point[i],
    by Lagrange inversion (Haiman and Schmitt, 1989): with
    f(x) = x + sum_i point[i] x^(i+1) / (i+1)!, the value is
    (n+1)! times the coefficient of x^(n+1) in the compositional inverse
    of f.  The inverse is found by the fixed-point iteration
    g <- x - (f(g) - g), which fixes one more coefficient per step."""
    order = n + 1
    f = [Fraction(0)] * (order + 1)
    f[1] = Fraction(1)
    for i in range(1, n + 1):
        f[i + 1] = point[i] / factorial(i + 1)
    g = [Fraction(0)] * (order + 1)
    g[1] = Fraction(1)
    for _ in range(order):
        power = g
        nxt = [Fraction(0)] * (order + 1)
        nxt[1] = Fraction(1)
        for k in range(2, order + 1):
            power = _series_mul(power, g, order)
            for j in range(order + 1):
                nxt[j] -= f[k] * power[j]
        g = nxt
    return factorial(order) * g[order]


def realized_tree_counts(spec_doc: dict) -> dict[int, int]:
    """Number of realized trees rooted at each generator of a coproduct
    table document: T(i) = 1 + sum over rows of i of the product, over the
    distinct right-leg ids j with multiplicity m, of multichoose(T(j), m)."""
    degree = {g["id"]: g["degree"] for g in spec_doc["generators"]}
    rows: dict[int, list[list[int]]] = {i: [] for i in degree}
    for row in spec_doc["coproduct"]:
        rows[row["source"]].append(row["right"])
    counts: dict[int, int] = {}
    for i in sorted(degree, key=degree.get):
        total = 1
        for right in rows[i]:
            total += prod(
                comb(counts[j] + right.count(j) - 1, right.count(j)) for j in set(right)
            )
        counts[i] = total
    return counts


_COMPARE_LINE = re.compile(r"(.*): dyson-salam=(\d+) forest=(\d+) agree=(yes|NO)")


def check_compare(stdout: str, spec_doc: dict, max_degree: int) -> list[str]:
    """Problems with a ``compare`` output: one line per generator of degree
    <= max_degree in id order, every line ``agree=yes``, and every
    ``forest=`` count equal to the independent realized-tree count."""
    gens = sorted(
        (g for g in spec_doc["generators"] if g["degree"] <= max_degree),
        key=lambda g: g["id"],
    )
    counts = realized_tree_counts(spec_doc)
    lines = stdout.splitlines()
    if len(lines) != len(gens):
        return [f"compare printed {len(lines)} lines for {len(gens)} generators"]
    problems = []
    for g, line in zip(gens, lines):
        match = _COMPARE_LINE.fullmatch(line)
        label = g.get("label") or f"b{g['id']}"
        if not match or match.group(1) != label:
            problems.append(f"malformed compare line {line!r}")
        elif match.group(4) != "yes":
            problems.append(f"methods disagree: {line!r}")
        elif int(match.group(3)) != counts[g["id"]]:
            problems.append(f"{line!r}: expected forest={counts[g['id']]}")
    return problems


def load_doc(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
