"""Correlation-space geometry: the attainable ranges (tetrahedron/octahedron
in the diagonal 3-space, square/diamond in the xx-zz plane) and plot-ready
data for the paper's two figures, whose witness plane and lines are built
from their closed forms.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import count, repeat

import numpy as np

from . import qcore
from .game import CSV_BLOCK_ROWS
from .serialize import float17
from .witness import (Witness, expected_payoff, fixed_chsh_witness,
                      strengthened_chsh_witness, werner_witness)

TETRAHEDRON_VERTICES = np.array(
    [(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1)], dtype=np.float64)
OCTAHEDRON_VERTICES = np.array(
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    dtype=np.float64)
SQUARE_VERTICES = np.array([(1, 1), (-1, 1), (-1, -1), (1, -1)], dtype=np.float64)
DIAMOND_VERTICES = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)], dtype=np.float64)

# fig2's hyperplane patch holds (r + 1)(r + 2)/2 points: 125,751 at this bound
MAX_RESOLUTION = 500


def werner_line_intersection(witness: Witness) -> float:
    """Parameter z* where the Werner family's payoff changes sign.

    The payoff is affine in z, so two exact evaluations at z = 0 and z = 1
    determine the crossing.  A witness whose payoff does not depend on z has
    no crossing and raises ValueError.
    """
    p0 = expected_payoff(qcore.make_werner(0.0), witness)
    p1 = expected_payoff(qcore.make_werner(1.0), witness)
    slope = p1 - p0
    if abs(slope) < 1e-12:
        raise ValueError("payoff is constant along the Werner line; no intersection")
    return float(-p0 / slope)


# ---------------------------------------------------------------------------
# Figure data export
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FigureData:
    """Plot-ready geometry, one array per series in insertion order:
    ``edges[series]`` is a (k, 2, dimension) array of endpoint pairs, and
    ``points[series]`` is a (k, dimension) coordinate array with a (k,) array
    of Werner parameters z, or with None for a series off the Werner line."""

    figure: str
    dimension: int
    edges: dict[str, np.ndarray] = field(default_factory=dict)
    points: dict[str, tuple[np.ndarray, np.ndarray | None]] = field(default_factory=dict)

    def series_points(self, series: str) -> np.ndarray:
        if series not in self.points:
            raise KeyError(f"no point series {series!r} in {self.figure}")
        return self.points[series][0]

    def csv_lines(self) -> Iterator[str]:
        """The CSV table as text, in blocks of at most CSV_BLOCK_ROWS rows."""
        pad = "," * (3 - self.dimension)
        yield "series,kind,index,werner_z,x1,y1,z1,x2,y2,z2\n"
        edges = [(s, ",".join(map(float17, p)), ",".join(map(float17, q)))
                 for s, pairs in self.edges.items() for p, q in pairs.tolist()]
        yield "".join(f"{s},edge,{i},,{p}{pad},{q}{pad}\n" for i, (s, p, q) in enumerate(edges))
        index = 0
        for series, (coords, zs) in self.points.items():
            for start in range(0, len(coords), CSV_BLOCK_ROWS):
                block = coords[start:start + CSV_BLOCK_ROWS].tolist()
                zcol = repeat("") if zs is None else map(float17, zs[start:start + len(block)])
                yield "".join(f"{series},point,{i},{z},{','.join(map(float17, p))}{pad},,,\n"
                              for i, z, p in zip(count(index), zcol, block))
                index += len(block)

    def json_text(self) -> Iterator[str]:
        """json.dumps of the figure with indent=2, and a newline, as text: the
        head whole, then the points in blocks of at most CSV_BLOCK_ROWS, each
        encoded as a list and re-indented one level."""
        enc = json.JSONEncoder(indent=2)
        head = enc.encode({
            "figure": self.figure,
            "dimension": self.dimension,
            "edges": [{"series": s, "from": p, "to": q}
                      for s, pairs in self.edges.items() for p, q in pairs.tolist()],
            "points": [],
        })
        yield head[:-len("]\n}")]  # up to the "[" of '"points": []\n}'
        sep = ""
        for series, (coords, zs) in self.points.items():
            for start in range(0, len(coords), CSV_BLOCK_ROWS):
                block = coords[start:start + CSV_BLOCK_ROWS].tolist()
                zcol = repeat(None) if zs is None else zs[start:start + len(block)].tolist()
                items = [{"series": series, "coords": p, **({} if z is None else {"werner_z": z})}
                         for p, z in zip(block, zcol)]
                # "[\n  {...},\n  {...}\n]" one level deeper, without its brackets
                yield sep + enc.encode(items).replace("\n", "\n  ")[1:-len("\n  ]")]
                sep = ","
        yield "\n  ]\n}\n" if sep else "]\n}\n"


def _polytope_edges(vertices: np.ndarray) -> np.ndarray:
    # The four solids here are centred at 0 with small-integer vertices, so
    # their edges are exactly the vertex pairs whose sum is not zero.
    i, j = np.triu_indices(len(vertices), 1)
    keep = (vertices[i] + vertices[j]).any(axis=1)
    return np.stack([vertices[i[keep]], vertices[j[keep]]], axis=1)


def _line_points(p: np.ndarray, q: np.ndarray, resolution: int) -> np.ndarray:
    lam = np.linspace(0.0, 1.0, resolution)[:, None]
    return (1.0 - lam) * p[None, :] + lam * q[None, :]


def _triangle_grid(vertices: np.ndarray, resolution: int) -> np.ndarray:
    """Points l1*v1 + l2*v2 + l3*v3 with barycentric weights (i/r, j/r,
    1 - i/r - j/r), i major and j minor.  The exported bytes depend on
    these float operations and their order."""
    steps = np.arange(resolution + 1)
    i, j = np.nonzero(steps[:, None] <= resolution - steps)
    l1 = i / resolution
    l2 = j / resolution
    l3 = 1.0 - l1 - l2
    return np.stack([l1 * a + l2 * b + l3 * c for a, b, c in vertices.T], axis=1)


def _figure_diagonal(resolution: int) -> FigureData:
    fig = FigureData(figure="fig2", dimension=3)
    fig.edges["tetrahedron"] = _polytope_edges(TETRAHEDRON_VERTICES)
    fig.edges["octahedron"] = _polytope_edges(OCTAHEDRON_VERTICES)

    # the werner witness plane x - y + z = 1 holds the octahedron face
    # (1, 0, 0), (0, -1, 0), (0, 0, 1)
    fig.points["hyperplane"] = (_triangle_grid(OCTAHEDRON_VERTICES[[0, 3, 4]], resolution), None)

    z_star = werner_line_intersection(werner_witness())
    werner_dir = np.array([1.0, -1.0, 1.0])
    zs = np.linspace(0.0, 1.0, resolution)
    fig.points["werner_line"] = (zs[:, None] * werner_dir, zs)
    fig.points["intersection"] = ((z_star * werner_dir)[None, :], np.array([z_star]))
    return fig


def _figure_xz(resolution: int) -> FigureData:
    fig = FigureData(figure="fig3", dimension=2)
    fig.edges["black_square"] = _polytope_edges(SQUARE_VERTICES)
    fig.edges["blue_square"] = _polytope_edges(DIAMOND_VERTICES)

    for series, wit in (("chsh_line", fixed_chsh_witness()),
                        ("strengthened_line", strengthened_chsh_witness())):
        # the line w00 + w11 x + w33 z = 0, where w11 = w33, crosses the
        # square at (1, c) and (c, 1)
        w = wit.weights.table
        c = -(w[0, 0] + w[1, 1]) / w[3, 3]
        p, q = np.array([1.0, c]), np.array([c, 1.0])
        fig.points[series] = (_line_points(p, q, resolution), None)

    werner_dir = np.array([1.0, 1.0])
    zs = np.linspace(0.0, 1.0, resolution)
    fig.points["werner_line"] = (zs[:, None] * werner_dir, zs)
    for series, wit in (("intersection_chsh", fixed_chsh_witness()),
                        ("intersection_strengthened", strengthened_chsh_witness())):
        z_star = werner_line_intersection(wit)
        fig.points[series] = ((z_star * werner_dir)[None, :], np.array([z_star]))
    return fig


def export_figure_data(which: str, resolution: int = 20) -> FigureData:
    """Geometry tables for the two standard figures.

    "fig2": diagonal-correlation 3-space with the tetrahedron, octahedron,
    the witness plane x - y + z = 1 and the Werner segment.  "fig3": the
    xx/zz plane with both squares, the two CHSH witness lines and the Werner
    diagonal.  ``resolution`` is an integer from 2 to MAX_RESOLUTION.
    """
    resolution = qcore.check_int(resolution, "resolution", 2, MAX_RESOLUTION)
    if which == "fig2":
        return _figure_diagonal(resolution)
    if which == "fig3":
        return _figure_xz(resolution)
    raise ValueError(f"unknown figure {which!r}; use 'fig2' or 'fig3'")
