"""Simplicial complexes, Hasse diagrams and elementary combinatorial checks.

A face is a strictly increasing tuple of non-negative integer vertex
labels; a complex is stored by its facets (inclusion-maximal faces).
Faces are ordered everywhere by (dimension, lexicographic), which fixes
boundary-matrix orientations and the lex collapse strategies.
"""

from __future__ import annotations

from array import array
from itertools import combinations, permutations

from .errors import (
    CapacityExceeded,
    DuplicateVertexInFacet,
    EmptyInput,
    NotAFace,
    NotPure,
)

Face = tuple  # strictly increasing tuple of ints

#: default cap on the total number of faces materialized in one Hasse diagram
DEFAULT_CAPACITY = 2**31


class SimplicialComplex:
    """Finite abstract simplicial complex given by its facet list.

    Immutable after construction; safe to share across threads.  Vertex
    labels are arbitrary non-negative integers and preserved as given.
    """

    __slots__ = ("facets", "dim", "_faces_by_dim", "_vertices", "_vertex_star")

    def __init__(self, facets):
        # internal constructor: facets assumed canonical & maximal
        self.facets = tuple(sorted(facets, key=lambda f: (len(f), f)))
        self.dim = max((len(f) for f in self.facets), default=0) - 1
        self._faces_by_dim = None
        self._vertices = None
        self._vertex_star = None

    @classmethod
    def from_facets(cls, facet_lists) -> "SimplicialComplex":
        facet_lists = list(facet_lists)
        if not facet_lists:
            raise EmptyInput("no facets given")
        faces = set()
        for i, raw in enumerate(facet_lists):
            raw = list(raw)
            if not raw:
                raise EmptyInput(f"facet #{i} is empty")
            if any(v < 0 for v in raw):
                raise EmptyInput(f"facet #{i} has a negative vertex label")
            f = tuple(sorted(raw))
            if len(set(f)) != len(f):
                raise DuplicateVertexInFacet(i, raw)
            faces.add(f)
        # drop non-maximal faces
        by_size = sorted(faces, key=len, reverse=True)
        maximal = []
        kept = []
        for f in by_size:
            fs = set(f)
            if any(fs <= g for g in kept):
                continue
            kept.append(fs)
            maximal.append(f)
        return cls(maximal)

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            vs = set()
            for f in self.facets:
                vs.update(f)
            self._vertices = tuple(sorted(vs))
        return self._vertices

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def faces_by_dim(self) -> list[list[Face]]:
        """All faces, grouped by dimension, each group sorted lex."""
        if self._faces_by_dim is None:
            seen = [set() for _ in range(self.dim + 1)]
            for f in self.facets:
                seen[len(f) - 1].add(f)
            for k in range(self.dim, 0, -1):
                lower = seen[k - 1]
                for f in seen[k]:
                    for g in combinations(f, k):
                        lower.add(g)
            self._faces_by_dim = [sorted(s) for s in seen]
        return self._faces_by_dim

    def faces(self, k: int) -> list[Face]:
        if k < 0 or k > self.dim:
            return []
        return self.faces_by_dim()[k]

    def num_faces(self) -> int:
        return sum(len(level) for level in self.faces_by_dim())

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces_by_dim())

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * fk for k, fk in enumerate(self.f_vector()))

    def star(self, face) -> list[Face]:
        """The facets containing ``face``, in facet order (all of them for ``()``).

        Answered from a vertex -> facets index built on first use: only the
        facets around the face's least-covered vertex are tested.
        """
        if self._vertex_star is None:
            index: dict = {}
            for g in self.facets:
                for v in g:
                    index.setdefault(v, []).append(g)
            self._vertex_star = index
        if not face:
            return list(self.facets)
        fs = set(face)
        around = min((self._vertex_star.get(v, ()) for v in fs), key=len)
        return [g for g in around if fs.issubset(g)]

    def has_face(self, face) -> bool:
        f = tuple(sorted(face))
        if not f or len(f) - 1 > self.dim:
            return False
        return bool(self.star(f))

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        return f"SimplicialComplex(dim={self.dim}, m={len(self.facets)})"

    # -- elementary checks (steps 1-3) ------------------------------------

    def is_pure(self) -> bool:
        size = self.dim + 1
        return all(len(f) == size for f in self.facets)

    def is_closed_pseudomanifold(self):
        """(ok, witness): every ridge in exactly two facets.

        On failure the witness is ``(ridge, count)`` for some offending
        ridge.  Requires a pure complex.
        """
        if not self.is_pure():
            raise NotPure("pseudomanifold check needs a pure complex")
        counts: dict = {}
        for f in self.facets:
            for r in combinations(f, len(f) - 1):
                counts[r] = counts.get(r, 0) + 1
        for r, c in counts.items():
            if c != 2:
                return False, (r, c)
        return True, None

    def is_connected(self) -> bool:
        """Connectivity of the 1-skeleton (union-find over edges)."""
        verts = self.vertices
        if not verts:
            return False
        parent = {v: v for v in verts}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for f in self.facets:
            for a, b in zip(f, f[1:]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        root = find(verts[0])
        return all(find(v) == root for v in verts)

    # -- links and subdivisions --------------------------------------------

    def link(self, face) -> "SimplicialComplex":
        f = tuple(sorted(face))
        star = self.star(f)
        if not star or star == [f]:
            raise NotAFace(f"{f} is not a proper face with non-void link")
        fs = set(f)
        link_facets = [tuple(v for v in g if v not in fs) for g in star]
        # facets of the link are automatically maximal when f is a face of
        # a complex whose facets all strictly contain f; guard anyway
        return SimplicialComplex.from_facets(link_facets)

    def barycentric_subdivision(self, capacity: int = DEFAULT_CAPACITY) -> "SimplicialComplex":
        """Order complex of the face poset.

        New vertex labels are the (dimension, lex) ranks of the old faces;
        facets are the maximal chains.
        """
        levels = self.faces_by_dim()
        rank = {}
        next_id = 0
        for level in levels:
            for f in level:
                rank[f] = next_id
                next_id += 1
        if next_id > capacity:
            raise CapacityExceeded(next_id, capacity)
        new_facets = []
        for facet in self.facets:
            for order in permutations(facet):
                chain = []
                prefix = []
                for v in order:
                    prefix.append(v)
                    chain.append(rank[tuple(sorted(prefix))])
                new_facets.append(tuple(sorted(chain)))
        return SimplicialComplex(new_facets)


class HasseDiagram:
    """Level-structured face poset of a complex, with up/down arcs in CSR form.

    Nodes are numbered in (dimension, lex) order; ``level_start[k]`` is the
    first node of dimension k.  The empty face is not materialized.  The
    diagram itself is immutable after :func:`build_hasse`; destructive
    algorithms keep private alive-flag / coface-count arrays per run.
    """

    __slots__ = (
        "dim",
        "faces",
        "level_start",
        "up_off",
        "up_idx",
        "down_off",
        "down_idx",
        "locator",
    )

    def level_range(self, k: int) -> range:
        return range(self.level_start[k], self.level_start[k + 1])

    def n_nodes(self) -> int:
        return len(self.faces)

    def locate(self, face):
        """Node id of ``face``, or None if it is not a face of the complex."""
        return self.locator.get(tuple(sorted(face)))

    def up_neighbors(self, node: int):
        return self.up_idx[self.up_off[node]:self.up_off[node + 1]]

    def down_neighbors(self, node: int):
        return self.down_idx[self.down_off[node]:self.down_off[node + 1]]

    def up_degrees(self) -> list[int]:
        off = self.up_off
        return [off[i + 1] - off[i] for i in range(len(self.faces))]


def build_hasse(K: SimplicialComplex, capacity: int = DEFAULT_CAPACITY) -> HasseDiagram:
    """Construct the full Hasse diagram of K by level-wise generation."""
    levels = K.faces_by_dim()
    total = sum(len(level) for level in levels)
    if total > capacity:
        raise CapacityExceeded(total, capacity)

    H = HasseDiagram()
    H.dim = K.dim
    faces: list[Face] = []
    level_start = [0]
    locator: dict = {}
    for level in levels:
        for f in level:
            locator[f] = len(faces)
            faces.append(f)
        level_start.append(len(faces))
    H.faces = faces
    H.level_start = level_start
    H.locator = locator

    down_off = array("l", [0])
    down_idx = array("l")
    up_lists: list[list[int]] = [[] for _ in range(total)]
    for node, f in enumerate(faces):
        k = len(f) - 1
        if k == 0:
            down_off.append(len(down_idx))
            continue
        for g in combinations(f, k):
            sub = locator[g]
            down_idx.append(sub)
            up_lists[sub].append(node)
        down_off.append(len(down_idx))
    up_off = array("l", [0])
    up_idx = array("l")
    for lst in up_lists:
        up_idx.extend(lst)
        up_off.append(len(up_idx))
    H.down_off = down_off
    H.down_idx = down_idx
    H.up_off = up_off
    H.up_idx = up_idx
    return H
