"""Group descriptions: named Coxeter types, products, and JSON documents.

A description document is a JSON object with the keys

    name             optional label (a string)
    type             named type ("A3", "F4", "I2(7)", "I2(inf)") or a list
                     of named types for a direct product
    matrix           explicit bond matrix instead of "type"; infinite bonds
                     may be written as null, 0 or "inf"
    L                1-based generator indices theta acts on (default: all)
    theta            list of swapped 1-based pairs, e.g. [[1,4],[2,3]];
                     unlisted members of L are fixed
    cap              enumeration bound (default 100000)
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import core, twisted
from .core import CoxeterSystem
from .errors import DescriptionError
from .twisted import DiagramAutomorphism, TwistedSubgroup

_KNOWN_KEYS = {"name", "type", "matrix", "L", "theta", "cap"}


def named_matrix(name: str) -> tuple[tuple, ...]:
    """Bond matrix of a named finite-type diagram (plus I2(inf))."""
    name = name.strip()
    m = re.fullmatch(r"A(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise DescriptionError(f"bad rank in {name!r}")
        return _path_matrix([3] * (n - 1))
    m = re.fullmatch(r"B(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise DescriptionError(f"bad rank in {name!r}")
        return _path_matrix([3] * (n - 2) + [4])
    m = re.fullmatch(r"D(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 4:
            raise DescriptionError(f"bad rank in {name!r}")
        # the path s1 - ... - s(n-1), then sn, bonded to s(n-2) alone
        return _path_matrix([3] * (n - 2) + [2], (n - 3, n - 1, 3))
    if name == "F4":
        return _path_matrix([3, 4, 3])
    if name == "H3":
        return _path_matrix([5, 3])
    if name == "H4":
        return _path_matrix([5, 3, 3])
    m = re.fullmatch(r"I2\((\d+|inf)\)", name)
    if m:
        arg = m.group(1)
        bond = math.inf if arg == "inf" else int(arg)
        if bond != math.inf and bond < 2:
            raise DescriptionError(f"bad bond in {name!r}")
        return ((1, bond), (bond, 1))
    raise DescriptionError(f"unknown group type {name!r}")


def _path_matrix(bonds, *extra):
    """Bond matrix of the path s1 - s2 - ... whose consecutive bonds are
    ``bonds``, with the further bonds (i, j, m) of ``extra``, 0-based."""
    n = len(bonds) + 1
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    for i, j, b in [(i, i + 1, b) for i, b in enumerate(bonds)] + list(extra):
        rows[i][j] = rows[j][i] = b
    return tuple(tuple(r) for r in rows)


def product_matrix(blocks) -> tuple[tuple, ...]:
    """Block-diagonal matrix of component matrices; cross bonds are 2."""
    n = sum(len(b) for b in blocks)
    rows = [[2] * n for _ in range(n)]
    off = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                rows[off + i][off + j] = b[i][j]
        off += k
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class GroupDescription:
    """Validated description, 0-based indices throughout."""

    matrix: tuple[tuple, ...]
    L: tuple[int, ...]
    theta_pairs: tuple[tuple[int, int], ...]
    cap: int

    @staticmethod
    def from_dict(doc: dict) -> "GroupDescription":
        if not isinstance(doc, dict):
            raise DescriptionError("description must be a JSON object")
        unknown = set(doc) - _KNOWN_KEYS
        if unknown:
            raise DescriptionError(f"unknown keys: {sorted(unknown)}")
        if not isinstance(doc.get("name", ""), str):
            raise DescriptionError("'name' must be a string")
        if ("type" in doc) == ("matrix" in doc):
            raise DescriptionError("provide exactly one of 'type' and 'matrix'")
        if "type" in doc:
            t = doc["type"]
            if isinstance(t, str):
                matrix = named_matrix(t)
            elif isinstance(t, list) and t and all(isinstance(x, str) for x in t):
                matrix = product_matrix([named_matrix(x) for x in t])
            else:
                raise DescriptionError("'type' must be a name or a list of names")
        else:
            matrix = _parse_matrix(doc["matrix"])
        matrix = core._validate_matrix(matrix)
        n = len(matrix)

        raw_L = doc.get("L")
        if raw_L is None:
            L = tuple(range(n))
        else:
            L = tuple(_index(v, n, "L") for v in _expect_list(raw_L, "L"))
            if len(set(L)) != len(L):
                raise DescriptionError("L has repeated entries")

        pairs = []
        for pair in _expect_list(doc.get("theta", []), "theta"):
            if not isinstance(pair, list) or len(pair) != 2:
                raise DescriptionError("theta must be a list of two-element pairs")
            pairs.append((_index(pair[0], n, "theta"), _index(pair[1], n, "theta")))

        cap = doc.get("cap", core.DEFAULT_CAP)
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
            raise DescriptionError("cap must be a positive integer")

        desc = GroupDescription(matrix=matrix, L=L, theta_pairs=tuple(pairs), cap=cap)
        twisted._checked_map(matrix, L, desc._mapping())
        return desc

    def _mapping(self) -> dict[int, int]:
        mapping = {}
        for a, b in self.theta_pairs:
            mapping[a] = b
            mapping[b] = a
        return mapping

    def build(self) -> "RealizedCase":
        system = core.build_system(self.matrix, cap=self.cap)
        theta = twisted.validate_automorphism(system, self.L, self._mapping())
        sub = twisted.enumerate_fixed_subgroup(theta)
        return RealizedCase(description=self, system=system, theta=theta, subgroup=sub)


@dataclass(frozen=True)
class RealizedCase:
    description: GroupDescription
    system: CoxeterSystem
    theta: DiagramAutomorphism
    subgroup: TwistedSubgroup


def _expect_list(v, key):
    if not isinstance(v, list):
        raise DescriptionError(f"{key!r} must be a list")
    return v


def _index(v, n, key):
    if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n:
        raise DescriptionError(f"{key!r} entry {v!r} is not a 1-based generator index")
    return v - 1


def _parse_matrix(raw):
    if not isinstance(raw, list):
        raise DescriptionError("'matrix' must be a list of rows")
    rows = []
    for r in raw:
        if not isinstance(r, list):
            raise DescriptionError("'matrix' rows must be lists")
        row = []
        for e in r:
            if e is None or e == "inf":
                row.append(math.inf)
            elif isinstance(e, int) and not isinstance(e, bool):
                # the integer 0 spells an infinite bond; false and 0.0 do not
                row.append(e or math.inf)
            else:
                raise DescriptionError(f"bad matrix entry {e!r}")
        rows.append(tuple(row))
    return tuple(rows)
