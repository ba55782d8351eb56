"""Simplicial complexes, Hasse diagrams and elementary combinatorial checks.

A face is a strictly increasing tuple of non-negative integer vertex
labels; a complex is stored by its facets (inclusion-maximal faces).
Faces are ordered everywhere by (dimension, lexicographic), which fixes
boundary-matrix orientations and the lex collapse strategies.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

from .errors import (
    CapacityExceeded,
    DuplicateVertexInFacet,
    EmptyInput,
    NotAFace,
    NotPure,
)

Face = tuple  # strictly increasing tuple of ints

#: the face budget, read at call time: at about 174 bytes of peak RSS per
#: face (``check simplex:19``, 2^20 - 1 faces), 2^23 faces is about 1.5 GB
DEFAULT_CAPACITY = 2**23


def check_capacity(needed: int) -> None:
    """Refuse work that would materialize more than ``DEFAULT_CAPACITY`` items."""
    if needed > DEFAULT_CAPACITY:
        raise CapacityExceeded(needed, DEFAULT_CAPACITY)


class SimplicialComplex:
    """Finite abstract simplicial complex given by its facet list.

    Immutable after construction; safe to share across threads.  Vertex
    labels are arbitrary non-negative integers and preserved as given.
    """

    __slots__ = ("facets", "dim", "_faces_by_dim", "_vertices", "_vertex_star", "_hasse")

    def __init__(self, facets):
        # internal constructor: facets assumed canonical & maximal
        self.facets = tuple(sorted(facets, key=lambda f: (len(f), f)))
        self.dim = max((len(f) for f in self.facets), default=0) - 1
        self._faces_by_dim = None
        self._vertices = None
        self._vertex_star = None
        self._hasse = None

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
        # a face is maximal iff no other input face contains it; one of the
        # largest size lies in no other, so pure input needs no test at all
        top = max(map(len, faces))
        if all(len(f) == top for f in faces):
            return cls(faces)
        everything = cls(faces)
        return cls(f for f in faces if len(f) == top or len(everything.star(f)) == 1)

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            vs = set()
            for f in self.facets:
                vs.update(f)
            self._vertices = tuple(sorted(vs))
        return self._vertices

    def face_bound(self) -> int:
        """Upper bound on the face count: facet f has 2^|f| - 1 faces."""
        return sum(2 ** len(f) - 1 for f in self.facets)

    def faces_by_dim(self) -> list[list[Face]]:
        """All faces, grouped by dimension, each group sorted lex; refused
        before enumerating when the face bound is over the budget."""
        if self._faces_by_dim is None:
            check_capacity(self.face_bound())
            seen = [set() for _ in range(self.dim + 1)]
            for f in self.facets:
                seen[len(f) - 1].add(f)
            for k in range(self.dim, 0, -1):
                lower = seen[k - 1]
                for f in seen[k]:
                    lower.update(combinations(f, k))
            self._faces_by_dim = [sorted(s) for s in seen]
        return self._faces_by_dim

    def faces(self, k: int) -> list[Face]:
        if k < 0 or k > self.dim:
            return []
        return self.faces_by_dim()[k]

    def hasse(self) -> "HasseDiagram":
        """The Hasse diagram, built by :func:`build_hasse` on first use."""
        if self._hasse is None:
            self._hasse = build_hasse(self)
        return self._hasse

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
        # distinct facets minus a common face stay distinct and maximal
        return SimplicialComplex(tuple(v for v in g if v not in fs) for g in star)

    def barycentric_subdivision(self) -> "SimplicialComplex":
        """Order complex of the face poset.

        New vertex labels are the Hasse node ids, the (dimension, lex) ranks,
        of the old faces.  The new facets are the maximal chains, (d+1)! per
        d-facet, walked down ``H.down`` from each facet's node to a node with
        no down arcs, a vertex; node ids fall along a chain, so a reversed
        chain is sorted.  The chain count is checked against the face budget
        before the diagram is built.
        """
        check_capacity(sum(factorial(len(f)) for f in self.facets))
        H = self.hasse()
        new_facets = []
        for facet in self.facets:
            chains = [(H.index[facet],)]
            while H.down[chains[0][-1]]:  # one facet's chains all have its length
                chains = [c + (b,) for c in chains for b in H.down[c[-1]]]
            new_facets.extend(c[::-1] for c in chains)
        return SimplicialComplex(new_facets)


class HasseDiagram:
    """Level-structured face poset of a complex, with up/down arcs as tuples.

    This is the complex's one face numbering: nodes are numbered in
    (dimension, lex) order, ``faces[node]`` is the face of a node and
    ``index[face]`` its node; ``level_start[k]`` is the first node of
    dimension k.  ``down[node]`` is a tuple of the node ids of
    the k-face's facets in ``combinations(face, k)`` order, so its entry j
    omits vertex k - j; ``up[node]`` is a tuple of the node ids of the faces
    one dimension up that contain it.  The empty face is not materialized.
    The diagram itself is immutable after :func:`build_hasse`; destructive
    algorithms keep private alive-flag / coface-count arrays per run.
    """

    __slots__ = ("dim", "faces", "index", "level_start", "up", "down")

    def level_range(self, k: int) -> range:
        return range(self.level_start[k], self.level_start[k + 1])

    def n_nodes(self) -> int:
        return len(self.faces)


def build_hasse(K: SimplicialComplex) -> HasseDiagram:
    """Construct the full Hasse diagram of K by level-wise generation."""
    levels = K.faces_by_dim()
    total = sum(len(level) for level in levels)

    H = HasseDiagram()
    H.dim = K.dim
    faces: list[Face] = []
    level_start = [0]
    index: dict = {}
    for level in levels:
        for f in level:
            index[f] = len(faces)
            faces.append(f)
        level_start.append(len(faces))
    H.faces = faces
    H.index = index
    H.level_start = level_start

    # node ids are the index's own int objects, shared by every tuple
    down: list[tuple] = []
    up: list = [[] for _ in range(total)]
    node_of = index.__getitem__
    for f, node in index.items():
        subs = tuple(map(node_of, combinations(f, len(f) - 1))) if len(f) > 1 else ()
        down.append(subs)
        for sub in subs:
            up[sub].append(node)
    for i, lst in enumerate(up):
        up[i] = tuple(lst)
    H.down = down
    H.up = up
    return H
