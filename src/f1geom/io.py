"""Reading and writing the description file formats.

Every input is JSON with a ``kind`` discriminator: monoid, table_monoid,
fan, torification, or cells.  ``KINDS`` is the one table of them: it maps
each kind to its class, its parser and its emitter, so parsing looks the
kind up by name and emission by the object's class.  Parsing returns the
typed object (a torification file gives the pair (torification, counting
polynomial or None)); syntax errors carry the line/column, semantic
errors the offending entry.  Emission is compact, sorted-key JSON on one
line plus a newline, written by the json module's C encoder; it is
canonical, so emit then re-parse is the identity.

A torification file holds its tori in one of two fields.  An unlabeled,
chartless torification is written as ``rank_counts``: ascending
[rank, multiplicity] pairs, each multiplicity at least 1, so that Gr(4, 8)
takes 17 pairs instead of 200,787 ranks.  A torification with torus
labels or a chart assignment is written as ``ranks``, one rank per torus,
which its ``labels`` and ``charts`` entries refer to by position.  The
parser reads either field, so per-torus files stay valid; ``rank_counts``
next to ``ranks``, ``labels`` or ``charts`` is refused.
"""
from __future__ import annotations

import json

from .fans import Fan, make_fan
from .monoid import AffineMonoid, TableMonoid
from .torified import CellComplex, Torification
from .zeta import CountingPolynomial


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{message}{where}")


class ValidationError(ValueError):
    pass


def read_json(path):
    """The JSON value held in the file at path; a ParseError names the file."""
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON in {path}: {e.msg}", e.lineno, e.colno) from e
    except ValueError as e:  # an integer past sys.get_int_max_str_digits()
        raise ParseError(f"cannot read {path}: a number in it has too many digits") from e


def parse_input(path, kinds=None):
    """Read one description file into its typed object.  ``kinds``, if
    given, names the file kinds the caller takes; a file of another kind
    is rejected by its kind before anything is built."""
    return object_from_dict(read_json(path), kinds, path)


def object_from_dict(data, kinds=None, where="input"):
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationError("input must be an object with a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}; expected one of {sorted(KINDS)}")
    if kinds is not None and kind not in kinds:
        raise ValidationError(f"{where} holds a {kind}, expected one of {list(kinds)}")
    return KINDS[kind][1](data)


def _int_list(value, where):
    # type(x) is int, not isinstance: JSON true and false are bools, and
    # bool subclasses int
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise ValidationError(f"{where} must be a list of integers")
    return value


def _monoid_from_dict(data) -> AffineMonoid:
    rank = data.get("ambient_rank")
    if type(rank) is not int or rank < 0:
        raise ValidationError("'ambient_rank' must be a nonnegative integer")
    torsion = _int_list(data.get("torsion", []), "'torsion'")
    gens = data.get("generators", [])
    if not isinstance(gens, list):
        raise ValidationError("'generators' must be a list of vectors")
    width = rank + len(torsion)
    for i, g in enumerate(gens):
        _int_list(g, f"generators[{i}]")
        if len(g) != width:
            raise ValidationError(
                f"generators[{i}] has length {len(g)}, expected {width}")
    pointed = data.get("pointed", False)
    if not isinstance(pointed, bool):
        raise ValidationError("'pointed' must be true or false")
    return AffineMonoid.make(rank, gens, torsion=torsion, pointed=pointed)


def _table_monoid_from_dict(data) -> TableMonoid:
    elements = data.get("elements")
    if not isinstance(elements, list) or not elements:
        raise ValidationError("'elements' must be a nonempty list")
    table = data.get("table")
    n = len(elements)
    if not isinstance(table, list) or len(table) != n or \
            any(not isinstance(row, list) or len(row) != n for row in table):
        raise ValidationError(f"'table' must be a {n}x{n} matrix of elements")
    identity = data.get("identity", elements[0])
    for key, values in (("elements", elements), ("table", sum(table, [])),
                        ("identity", [identity]), ("zero", [data.get("zero")])):
        if any(isinstance(x, (list, dict)) for x in values):
            raise ValidationError(f"'{key}' must hold numbers or strings, not arrays or objects")
    mapping = {}
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            mapping[(a, b)] = table[i][j]
    return TableMonoid.make(elements, mapping, identity=identity,
                            zero=data.get("zero"))


def _fan_from_dict(data) -> Fan:
    rank = data.get("rank")
    if type(rank) is not int or rank < 1:
        raise ValidationError("'rank' must be a positive integer")
    rays = data.get("rays", [])
    if not isinstance(rays, list):
        raise ValidationError("'rays' must be a list of integer vectors")
    for i, r in enumerate(rays):
        _int_list(r, f"rays[{i}]")
        if len(r) != rank:
            raise ValidationError(f"rays[{i}] has length {len(r)}, expected {rank}")
    cones = data.get("cones")
    if not isinstance(cones, list):
        raise ValidationError("'cones' must be a list of ray index lists")
    for i, c in enumerate(cones):
        _int_list(c, f"cones[{i}]")
    return make_fan(rank, rays, cones)


def _torification_from_dict(data) -> tuple:
    if "rank_counts" in data:
        extra = [key for key in ("ranks", "labels", "charts") if key in data]
        if extra:
            raise ValidationError(f"'rank_counts' cannot be combined with {extra}: labels and "
                                  "charts refer to a per-torus 'ranks' list")
        ranks = _rank_counts(data["rank_counts"])
    else:
        ranks = _int_list(data.get("ranks", []), "'ranks'")
    counting = None
    if "counting" in data:
        counting = CountingPolynomial.make(_int_list(data["counting"], "'counting'"))
    charts = None
    if "charts" in data:
        charts = {}
        if not isinstance(data["charts"], dict):
            raise ValidationError("'charts' must map chart ids to records")
        for cid, recdata in data["charts"].items():
            where = f"charts[{cid}]"
            if not isinstance(recdata, dict):
                raise ValidationError(f"{where} must be an object with 'tori' and 'counting'")
            for key in ("tori", "counting"):
                if key not in recdata:
                    raise ValidationError(f"{where} lacks the {key!r} entry")
            charts[cid] = (_label_list(recdata["tori"], f"{where}.tori"), CountingPolynomial.make(
                _int_list(recdata["counting"], f"{where}.counting")))
    labels = None
    if "labels" in data:
        labels = _label_list(data["labels"], "'labels'")
    return Torification.make(ranks, labels, charts), counting


def _rank_counts(value) -> dict:
    """{rank: multiplicity} of a 'rank_counts' list of [rank, multiplicity]
    pairs, ranks strictly ascending from 0 up, multiplicities from 1 up."""
    if not isinstance(value, list):
        raise ValidationError("'rank_counts' must be a list of [rank, multiplicity] pairs")
    counts = {}
    for i, pair in enumerate(value):
        where = f"rank_counts[{i}]"
        if len(_int_list(pair, where)) != 2:
            raise ValidationError(f"{where} must be a [rank, multiplicity] pair")
        rank, mult = pair
        if rank < 0 or mult < 1:
            raise ValidationError(f"{where} is {pair}: ranks must be nonnegative and "
                                  "multiplicities positive")
        if i and rank <= value[i - 1][0]:
            raise ValidationError(f"{where} has rank {rank}, not above the rank before it: "
                                  "ranks must be strictly ascending")
        counts[rank] = mult
    return counts


def _label_list(value, where):
    """Torus labels: integers, strings, or flat lists of them (as tuples)."""
    if not isinstance(value, list) or not all(
            type(x) in (int, str) for t in value for x in (t if isinstance(t, list) else [t])):
        raise ValidationError(f"{where} must be a list of torus labels: integers, "
                              "strings or flat lists of them")
    return [tuple(t) if isinstance(t, list) else t for t in value]


def _cells_from_dict(data) -> CellComplex:
    cells = data.get("cells")
    if not isinstance(cells, list):
        raise ValidationError("'cells' must be a list of [dim, base] pairs")
    for i, c in enumerate(cells):
        _int_list(c, f"cells[{i}]")
        if len(c) != 2:
            raise ValidationError(f"cells[{i}] must be a [dim, base] pair")
    return CellComplex.make(cells)


# --- emission --------------------------------------------------------------------

def _monoid_to_dict(A: AffineMonoid) -> dict:
    return {
        "ambient_rank": A.ambient_rank,
        "torsion": list(A.torsion),
        "generators": [list(g) for g in A.generators],
        "pointed": A.pointed,
    }


def _table_monoid_to_dict(M: TableMonoid) -> dict:
    out = {
        "elements": list(M.elements),
        "table": [[M.op(a, b) for b in M.elements] for a in M.elements],
        "identity": M.identity,
    }
    if M.zero is not None:
        out["zero"] = M.zero
    return out


def _fan_to_dict(fan: Fan) -> dict:
    return {
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "cones": [sorted(c) for c in fan.sorted_cones()],
    }


def _torification_to_dict(T: Torification) -> dict:
    if not T.labels and T.charts is None:
        return {"rank_counts": [list(pair) for pair in T.rank_counts]}
    out = {"ranks": list(T.ranks)}
    if T.labels:
        out["labels"] = [list(l) if isinstance(l, tuple) else l for l in T.labels]
    if T.charts is not None:
        out["charts"] = {
            str(cid): {
                "tori": [list(t) if isinstance(t, tuple) else t for t in tori],
                "counting": list(poly.coefficients),
            }
            for cid, (tori, poly) in T.charts.items()
        }
    return out


def _cells_to_dict(c: CellComplex) -> dict:
    return {"cells": [list(p) for p in c.cells]}


# kind -> (class, parser, emitter); an emitter writes every entry but the kind
KINDS = {
    "monoid": (AffineMonoid, _monoid_from_dict, _monoid_to_dict),
    "table_monoid": (TableMonoid, _table_monoid_from_dict, _table_monoid_to_dict),
    "fan": (Fan, _fan_from_dict, _fan_to_dict),
    "torification": (Torification, _torification_from_dict, _torification_to_dict),
    "cells": (CellComplex, _cells_from_dict, _cells_to_dict),
}
_KIND_OF_CLASS = {cls: kind for kind, (cls, _, _) in KINDS.items()}


def object_to_dict(obj, counting=None) -> dict:
    """The file dict of ``obj``.  ``counting``, the polynomial a torification
    file is verified against, is written as the 'counting' entry, which
    only the torification parser reads."""
    kind = _KIND_OF_CLASS.get(type(obj))
    if kind is None:
        raise ValidationError(f"cannot emit {obj!r}")
    out = {"kind": kind, **KINDS[kind][2](obj)}
    if counting is not None:
        out["counting"] = list(counting.coefficients)
    return out


def emit(obj, path, counting=None):
    text = json.dumps(object_to_dict(obj, counting), sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
