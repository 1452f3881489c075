"""Named small-group families and the group-spec mini-language.

Specs: ``C n`` cyclic, ``D n`` dihedral of order 2n (n >= 3), ``S n`` and
``A n`` symmetric and alternating (n <= 6), ``Q8`` quaternion, ``E p^k``
elementary abelian, ``H p`` the order p^3 group of unitriangular 3x3
matrices over Z_p (p in 2, 3, 5), products joined with ``x``, ``@path`` for
a JSON Cayley-table file, and ``perm:<degree>:<cycles>[;<cycles>...]`` for
inline permutation generators with 1-based points.  Family orders and
``perm:`` degrees past PERM_CLOSURE_CAP raise OrderBound, building nothing.
"""

from __future__ import annotations

import itertools
import json
import math
import re

from .errors import NotAPermutation, OrderBound, UnknownSpec
from .group import (
    PERM_CLOSURE_CAP,
    TableGroup,
    _composition_group,
    _read_number,
    cycle_name,
    direct_product,
    from_cayley_table,
    from_permutation_generators,
)

__all__ = [
    "catalog",
    "catalog_upto",
    "parse_group_list",
    "cyclic",
    "dihedral",
    "symmetric",
    "alternating",
    "quaternion",
    "elementary_abelian",
    "heisenberg",
]

_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23}


def _within_cap(label, size):
    if size > PERM_CLOSURE_CAP:
        raise OrderBound(f"{label} is larger than the size cap "
                         f"{PERM_CLOSURE_CAP}")


def _number(spec, digits):
    """A spec's digits as an int; ten or more are past every size cap."""
    n = _read_number(digits)
    if n is None:
        raise OrderBound(f"{spec[:24]}...: past the size cap")
    return n


def cyclic(n):
    if n < 1:
        raise UnknownSpec(f"C{n}: order must be positive")
    _within_cap(f"C{n}", n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = tuple(str(i) for i in range(n))
    return TableGroup(table, names=names, label=f"C{n}", validate=False)


def dihedral(n):
    """Symmetries of the regular n-gon, order 2n.  Index i + n*j is the
    rotation r^i when j = 0 and the reflection r^i s when j = 1."""
    if n < 3:
        raise UnknownSpec(f"D{n}: need n >= 3 (order 2n)")
    order = 2 * n
    _within_cap(f"D{n}", order)

    def m(a, b):
        i, j = a % n, a // n
        k, l = b % n, b // n
        rot = (i + (k if j == 0 else -k)) % n
        return rot + n * ((j + l) % 2)

    table = [[m(a, b) for b in range(order)] for a in range(order)]
    names = []
    for j in (0, 1):
        for i in range(n):
            rot = "e" if i == 0 else ("r" if i == 1 else f"r{i}")
            if j == 0:
                names.append(rot)
            else:
                names.append("s" if i == 0 else f"{rot}s")
    return TableGroup(table, names=tuple(names), label=f"D{n}",
                      validate=False)


def symmetric(n):
    if not 1 <= n <= 6:
        raise UnknownSpec(f"S{n}: supported range is 1..6")
    perms = list(itertools.permutations(range(n)))
    return _composition_group(perms, tuple(map(cycle_name, perms)), f"S{n}")


def _parity(p):
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return inv % 2


def alternating(n):
    if not 1 <= n <= 6:
        raise UnknownSpec(f"A{n}: supported range is 1..6")
    perms = [p for p in itertools.permutations(range(n)) if _parity(p) == 0]
    return _composition_group(perms, tuple(map(cycle_name, perms)), f"A{n}")


def quaternion():
    """The quaternion group on 1, -1, i, -i, j, -j, k, -k."""
    units = ["1", "i", "j", "k"]
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def base_mul(u, v):
        # returns (sign, unit)
        if u == "1":
            return 1, v
        if v == "1":
            return 1, u
        if u == v:
            return -1, "1"
        order = {"i": 0, "j": 1, "k": 2}
        third = ({"i", "j", "k"} - {u, v}).pop()
        sign = 1 if (order[u] + 1) % 3 == order[v] else -1
        return sign, third

    def idx(sign, unit):
        return units.index(unit) * 2 + (0 if sign == 1 else 1)

    table = []
    for a in range(8):
        row = []
        sa, ua = (1 if a % 2 == 0 else -1), units[a // 2]
        for b in range(8):
            sb, ub = (1 if b % 2 == 0 else -1), units[b // 2]
            s, u = base_mul(ua, ub)
            row.append(idx(s * sa * sb, u))
        table.append(row)
    return TableGroup(table, names=tuple(names), label="Q8", validate=True)


def elementary_abelian(p, k):
    if p not in _PRIMES:
        raise UnknownSpec(f"E{p}^{k}: {p} is not a supported prime")
    if k < 1:
        raise UnknownSpec(f"E{p}^{k}: exponent must be positive")
    # p**k >= 2**k, so a long exponent is refused before the power
    _within_cap(f"E{p}^{k}", p ** min(k, PERM_CLOSURE_CAP.bit_length()))
    order = p ** k

    def m(a, b):
        acc, mult = 0, 1
        for _ in range(k):
            acc += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return acc

    table = [[m(a, b) for b in range(order)] for a in range(order)]
    return TableGroup(table, label=f"E{p}^{k}", validate=False)


def heisenberg(p):
    """Unitriangular 3x3 matrices over Z_p: (a,b,c)*(a',b',c') =
    (a+a', b+b'+a*c', c+c'), order p^3.  Index is a*p^2 + b*p + c."""
    if p not in (2, 3, 5):
        raise UnknownSpec(f"H{p}: supported primes are 2, 3, 5")
    order = p ** 3

    def m(x, y):
        a, b, c = x // (p * p), (x // p) % p, x % p
        d, e, f = y // (p * p), (y // p) % p, y % p
        return ((a + d) % p) * p * p + ((b + e + a * f) % p) * p + (c + f) % p

    table = [[m(x, y) for y in range(order)] for x in range(order)]
    return TableGroup(table, label=f"H{p}", validate=False)


def _from_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UnknownSpec(
            f"cannot read a group from {path!r}: {exc}") from None
    if not isinstance(data, dict) or "table" not in data:
        raise UnknownSpec(f'{path!r} holds no JSON object with a "table"')
    table = data["table"]
    names = data.get("names")
    label = data.get("label", "@" + path)
    return from_cayley_table(table, names=names, label=label, validate=True)


_CYCLES_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycles(text, degree):
    """One generator given as a product of cycles over 1-based points."""
    perm = list(range(degree))
    body = text.strip()
    cycles = _CYCLES_RE.findall(body)
    if not cycles and re.sub(r"[\s()]", "", body):
        raise NotAPermutation(f"cannot read cycles from {text!r}")
    used = set()
    for cyc in cycles:
        try:
            points = [int(t) for t in cyc.split()]
        except ValueError:
            raise NotAPermutation(
                f"cycle points must be integers in {text!r}") from None
        if not points:
            continue
        for pt in points:
            if not 1 <= pt <= degree:
                raise NotAPermutation(
                    f"point {pt} outside 1..{degree} in {text!r}")
            if pt in used:
                raise NotAPermutation(
                    f"point {pt} repeats in {text!r}; cycles must be disjoint")
            used.add(pt)
        for i, pt in enumerate(points):
            perm[pt - 1] = points[(i + 1) % len(points)] - 1
    return tuple(perm)


def _perm_spec(spec):
    parts = spec.split(":", 2)
    if len(parts) != 3:
        raise UnknownSpec(f"{spec!r}: expected perm:<degree>:<cycles>")
    try:
        degree = int(parts[1])
    except ValueError:
        raise UnknownSpec(f"{spec!r}: bad degree {parts[1]!r}") from None
    _within_cap(f"perm:{degree}", degree)
    gens = [_parse_cycles(g, degree) for g in parts[2].split(";") if g.strip()]
    return from_permutation_generators(degree, gens, label=spec)


def _atom(spec):
    if spec.startswith("@"):
        return _from_file(spec[1:])
    if spec.startswith("perm:"):
        return _perm_spec(spec)
    if spec == "Q8":
        return quaternion()
    m = re.fullmatch(r"([CDSAH])(\d+)", spec)
    if m:
        family = {"C": cyclic, "D": dihedral, "S": symmetric,
                  "A": alternating, "H": heisenberg}[m.group(1)]
        return family(_number(spec, m.group(2)))
    m = re.fullmatch(r"E(\d+)\^(\d+)", spec)
    if m:
        return elementary_abelian(*(_number(spec, d) for d in m.groups()))
    m = re.fullmatch(r"Z(\d+)", spec)
    if m:
        raise UnknownSpec(
            f"unknown group spec {spec!r} (did you mean C{m.group(1)}?)")
    lowered = spec.upper()
    if lowered != spec and re.fullmatch(r"[CDSAQEH]\d.*", lowered):
        raise UnknownSpec(
            f"unknown group spec {spec!r} (did you mean {lowered}?)")
    raise UnknownSpec(f"unknown group spec {spec!r}")


def catalog(spec):
    """Build the group named by a spec string."""
    spec = spec.strip()
    if not spec:
        raise UnknownSpec("empty group spec")
    if spec.startswith("@") or spec.startswith("perm:"):
        return _atom(spec)
    parts = spec.split("x")
    if len(parts) == 1:
        return _atom(parts[0])
    factors = [_atom(p.strip()) for p in parts]
    return direct_product(*factors, label=spec)


def catalog_upto(max_order):
    """The documented catalog sweep: every named family member of order
    at most max_order, in a fixed canonical order.  A sweep whose tables
    hold more entries in all (the sum of the squared orders) than the
    largest member allowed, PERM_CLOSURE_CAP squared, raises OrderBound
    before anything is built."""
    _within_cap(f"catalog<={max_order}", max_order)
    # (order, family, arguments) of every candidate, in the canonical order
    members = [(n, cyclic, n) for n in range(1, max_order + 1)]
    members += [(2 * n, dihedral, n) for n in range(3, max_order // 2 + 1)]
    members += [(math.factorial(n), symmetric, n) for n in range(3, 7)]
    members += [(math.factorial(n) // 2, alternating, n) for n in range(4, 7)]
    members.append((8, quaternion))
    members += [(p ** k, elementary_abelian, p, k)
                for p in (2, 3, 5) for k in range(2, 5)]
    members += [(p ** 3, heisenberg, p) for p in (2, 3, 5)]
    members = [m for m in members if m[0] <= max_order]
    entries = sum(m[0] ** 2 for m in members)
    if entries > PERM_CLOSURE_CAP ** 2:
        raise OrderBound(f"catalog<={max_order} holds {entries} table "
                         f"entries, more than the size cap "
                         f"{PERM_CLOSURE_CAP}**2")
    return [family(*args) for _, family, *args in members]


_CATALOG_RE = re.compile(r"catalog\s*<=\s*(\d+)")


def parse_group_list(text):
    """Comma-separated specs; ``catalog<=N`` expands to the full sweep."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        m = _CATALOG_RE.fullmatch(part)
        if m:
            out.extend(catalog_upto(_number(part, m.group(1))))
        else:
            out.append(catalog(part))
    if not out:
        raise UnknownSpec(f"no groups in {text!r}")
    return out
