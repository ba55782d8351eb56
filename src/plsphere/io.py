"""Facet-file parsing and writing.

Two formats are supported:

* text: one facet per line, whitespace-separated non-negative integers;
  ``#`` starts a comment, blank lines are ignored;
* JSON: an object ``{"facets": [[...], ...]}`` whose vertex labels are
  JSON integers (not floats, strings or booleans).

Both reject duplicate vertices within a facet; negative labels are
rejected when the complex is built.
"""

from __future__ import annotations

import json

from .complex_core import SimplicialComplex
from .errors import DuplicateVertexInFacet, EmptyInput


def parse_facet_text(text: str) -> list[list[int]]:
    facets = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            verts = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise EmptyInput(f"line {lineno}: {exc}") from None
        if any(v < 0 for v in verts):
            raise EmptyInput(f"line {lineno}: negative vertex label")
        if len(set(verts)) != len(verts):
            raise DuplicateVertexInFacet(lineno, verts)
        facets.append(verts)
    if not facets:
        raise EmptyInput("no facets in input")
    return facets


def parse_facet_json(text: str) -> list[list[int]]:
    obj = json.loads(text)
    if not isinstance(obj, dict) or not isinstance(obj.get("facets"), list):
        raise EmptyInput('JSON input must be an object with a "facets" list')
    facets = []
    for i, verts in enumerate(obj["facets"]):
        # bool is a subclass of int, and true would silently become vertex 1
        if not isinstance(verts, list) or any(type(v) is not int for v in verts):
            raise EmptyInput(f"facet #{i}: not a list of integer vertex labels: {verts!r}")
        if len(set(verts)) != len(verts):
            raise DuplicateVertexInFacet(i, verts)
        facets.append(verts)
    return facets


def read_complex(path: str) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        facets = parse_facet_json(text)
    else:
        facets = parse_facet_text(text)
    return SimplicialComplex.from_facets(facets)


def facet_text(K: SimplicialComplex) -> str:
    lines = [" ".join(str(v) for v in f) for f in K.facets]
    return "\n".join(lines) + "\n"


def facet_json(K: SimplicialComplex) -> str:
    return json.dumps({"facets": [list(f) for f in K.facets]})


def write_complex(K: SimplicialComplex, path: str, fmt: str = "text") -> None:
    data = facet_json(K) + "\n" if fmt == "json" else facet_text(K)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)
