"""Module file format: the JSON interchange representation of a graded
module presentation.

    {"ring": {"char": p, "vars": v},
     "generators": [a_0, ..., a_{r-1}],
     "relations": [[f_00, ..., f_{r-1,0}], ...]}

`generators` lists the degrees a_j of the target F_0 = (+) S(-a_j);
each relation entry is a column of polynomial strings, one per generator.
Column degrees are inferred (entry degree + generator degree must agree
across the column) and inhomogeneity is an error naming the column.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .modules import GradedFreeModule, GradedMap
from .resolutions import Presentation
from .rings import ParseError, Ring, parse_polynomial


def _is_int(x):
    # JSON true and false load as bool, a subclass of int; they are not integers
    return isinstance(x, int) and not isinstance(x, bool)


def presentation_from_dict(data):
    if not isinstance(data, dict):
        raise ParseError("module file must be a JSON object")
    try:
        ring_spec = data["ring"]
        char = ring_spec["char"]
        num_vars = ring_spec["vars"]
        gen_degrees = data["generators"]
        relations = data.get("relations", [])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"module file missing field: {exc}") from None
    if not _is_int(char) or not _is_int(num_vars):
        raise ParseError("ring char and vars must be integers")
    try:
        ring = Ring(char, num_vars)
    except Exception as exc:
        raise ParseError(f"bad ring: {exc}") from None
    if not isinstance(gen_degrees, list) or not all(_is_int(a) for a in gen_degrees):
        raise ParseError("generators must be a list of integers")
    gens = GradedFreeModule(ring, tuple(gen_degrees))

    if not isinstance(relations, list):
        raise ParseError("relations must be a list of columns")
    columns = []
    col_degrees = []
    for j, col in enumerate(relations):
        if not isinstance(col, list) or len(col) != gens.rank:
            raise ParseError(
                f"relations column {j} must list one polynomial per generator "
                f"({gens.rank} expected)"
            )
        entries = {}
        degree = None
        for i, text in enumerate(col):
            if not isinstance(text, str):
                raise ParseError(f"relations[{j}][{i}] must be a string")
            if text == "0":
                continue
            try:
                p = parse_polynomial(ring, text)
            except ParseError as exc:
                raise ParseError(f"relations[{j}][{i}]: {exc}") from None
            if p.is_zero():
                continue
            entries[i] = p
            try:
                d = p.homogeneous_degree() + gen_degrees[i]
            except Exception:
                raise ParseError(f"inhomogeneous column {j} (entry {i})") from None
            if degree is None:
                degree = d
            elif d != degree:
                raise ParseError(
                    f"inhomogeneous column {j}: entry {i} gives degree {d}, "
                    f"expected {degree}"
                )
        columns.append(entries)
        col_degrees.append(degree if degree is not None else 0)

    source = GradedFreeModule(ring, tuple(col_degrees))
    return Presentation(gens, GradedMap.from_columns(source, gens, columns).validate())


def parse_module(text):
    """Parse module-file JSON text (or bytes) into a Presentation."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    return presentation_from_dict(data)


def load_module(path):
    with open(path, "rb") as fh:
        return parse_module(fh.read())


def _clear_denominators(column):
    denom = 1
    for p in column.values():
        for c in p.terms.values():
            if isinstance(c, Fraction):
                denom = math.lcm(denom, c.denominator)
    if denom == 1:
        return column
    return {i: p.scale(denom) for i, p in column.items()}


def presentation_to_dict(pres):
    """Serialize; zero relation columns are dropped, absent entries are
    written as "0", and over the rationals each column is scaled to clear
    denominators (a unit scaling, so the presented module is unchanged)."""
    ring = pres.ring
    columns = []
    for col in pres.rels.cols:
        if not col:
            continue
        if ring.characteristic == 0:
            col = _clear_denominators(col)
        columns.append([col[i].to_string() if i in col else "0" for i in range(pres.gens.rank)])
    return {
        "ring": {"char": ring.characteristic, "vars": ring.num_vars},
        "generators": list(pres.gens.degrees),
        "relations": columns,
    }


def dump_module(pres, indent=None):
    return json.dumps(presentation_to_dict(pres), indent=indent)


def save_module(pres, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_module(pres, indent=2))
        fh.write("\n")
