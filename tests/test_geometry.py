import csv
import hashlib
import io
import itertools
import json

import numpy as np
import pytest

import ewgame as ew
from conftest import pauli_string
from ewgame import geometry, qcore

RT2 = np.sqrt(2.0)
RT3 = np.sqrt(3.0)
DIAG = ((1, 1), (2, 2), (3, 3))
XZ = ((1, 1), (3, 3))

# sha256 of the figures at the default resolution, 20, as `ewgame geometry`
# writes them in each format
FIGURE_SHA256 = {
    ("fig2", "csv"): "e0425cc836e449dad42799ac6c25d498af5336b04a60294a4ab38427ef411244",
    ("fig2", "structured"): "72eb5a892286d9bad4b6a2d400bb9668ae3b1d1194fd54d250f66f87cd3ed68b",
    ("fig3", "csv"): "57f2a22f9a919ed264c4d150604ef4a4a3d8c30bfaedfcdfb9046b6363f78028",
    ("fig3", "structured"): "f8935ba37da85e340ea39dd1127eab7fbb94e1c0d3e79d49203f197003df0873",
}


def diagonal_coords(rho):
    """Correlations Tr(rho sigma_a (x) sigma_a) along the xx, yy, zz axes."""
    r = qcore.pauli_traces(rho.matrix)
    return np.array([r[ax] for ax in DIAG])


def witness_plane(wit, axes):
    """Normal (w[ax] for each axis) and offset w[0, 0] of the plane
    Tr(rho W) = 0 in the axes' coordinates, for a witness whose weights lie
    on the identity and those axes."""
    w = wit.weights.table
    assert {tuple(ix) for ix in np.argwhere(w != 0.0)} <= set(axes) | {(0, 0)}
    return np.array([w[ax] for ax in axes]), float(w[0, 0])


def in_tetrahedron(coords, tol=1e-9):
    # the Bell projector expectations (1 + v.c)/4 must all be nonnegative
    return np.min(1.0 + geometry.TETRAHEDRON_VERTICES @ coords) >= -4.0 * tol


class TestProject:
    def test_bell_state_hits_tetrahedron_vertex(self):
        assert np.allclose(diagonal_coords(ew.bell_psi_plus()), [1, -1, 1], atol=1e-12)

    @pytest.mark.parametrize("z", [0.2, 0.5, 0.8])
    def test_werner_family_is_a_line(self, z):
        assert np.allclose(diagonal_coords(ew.make_werner(z)), [z, -z, z], atol=1e-12)

    def test_maximally_mixed_at_origin(self):
        assert np.max(np.abs(diagonal_coords(ew.maximally_mixed(2)))) < 1e-12


class TestRangeModel:
    def test_three_dimensional_vertices(self):
        assert sorted(map(tuple, geometry.TETRAHEDRON_VERTICES)) == sorted(
            [(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1)])
        assert sorted(map(tuple, geometry.OCTAHEDRON_VERTICES)) == sorted(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])

    def test_two_dimensional_vertices(self):
        assert sorted(map(tuple, geometry.SQUARE_VERTICES)) == sorted(
            [(1, 1), (-1, 1), (-1, -1), (1, -1)])
        assert sorted(map(tuple, geometry.DIAMOND_VERTICES)) == sorted(
            [(1, 0), (0, 1), (-1, 0), (0, -1)])

    def test_separables_fill_the_diamond(self, separable_corpus):
        sx = pauli_string((1, 1))
        sz = pauli_string((3, 3))
        xs = np.einsum("nij,ji->n", separable_corpus, sx).real
        zs = np.einsum("nij,ji->n", separable_corpus, sz).real
        assert np.max(np.abs(xs) + np.abs(zs)) <= 1.0 + 1e-9

    def test_all_states_land_in_tetrahedron(self, rng):
        for _ in range(10_000):
            rho = ew.random_density_matrix(rng, 4)
            assert in_tetrahedron(diagonal_coords(rho))

    def test_bell_diagonal_ppt_iff_inside_octahedron(self, rng):
        # oracle: partial-transpose eigenvalues of the reconstructed state
        done = 0
        while done < 10_000:
            c = rng.uniform(-1, 1, size=3)
            if not in_tetrahedron(c, tol=0.0):
                continue  # not a physical Bell-diagonal point
            done += 1
            table = np.zeros((4, 4))
            table[0, 0] = 1.0
            table[1, 1], table[2, 2], table[3, 3] = c
            rho = ew.from_pauli_coefficients(table)
            lam = np.linalg.eigvalsh(ew.partial_transpose(rho))[0]
            inside = np.abs(c).sum() <= 1.0
            assert (lam >= -1e-12) == inside


class TestWernerLineIntersection:
    def test_three_builtin_thresholds(self):
        assert ew.werner_line_intersection(ew.werner_witness()) == \
            pytest.approx(1 / 3, abs=1e-12)
        assert ew.werner_line_intersection(ew.fixed_chsh_witness()) == \
            pytest.approx(RT2 / 2, abs=1e-12)
        assert ew.werner_line_intersection(ew.strengthened_chsh_witness()) == \
            pytest.approx(0.5, abs=1e-12)

    def test_constant_payoff_raises(self):
        table = np.zeros((4, 4))
        table[0, 0] = 1.0
        flat = ew.Witness(ew.PauliWeights(table))
        with pytest.raises(ValueError, match="constant"):
            ew.werner_line_intersection(flat)


class TestDistanceIdentity:
    def test_payoff_is_signed_distance_to_plane(self, rng):
        # the witness's diagonal part is a unit vector, so -Tr(rho W) equals
        # the signed Euclidean distance from the projection to the plane
        wit = ew.werner_witness()
        normal, offset = witness_plane(wit, DIAG)
        for _ in range(200):
            rho = ew.random_density_matrix(rng, 4)
            coords = diagonal_coords(rho)
            signed = -(offset + normal @ coords) / np.linalg.norm(normal)
            assert ew.expected_payoff(rho, wit) == pytest.approx(signed, abs=1e-10)


class TestFigureExport:
    def test_fig2_hyperplane_points_on_plane(self):
        fig = ew.export_figure_data("fig2", resolution=12)
        pts = fig.series_points("hyperplane")
        assert np.max(np.abs(pts[:, 0] - pts[:, 1] + pts[:, 2] - 1.0)) <= 1e-10

    def test_fig2_werner_segment(self):
        fig = ew.export_figure_data("fig2", resolution=12)
        pts = fig.series_points("werner_line")
        assert np.allclose(pts[0], [0, 0, 0], atol=1e-15)
        assert np.allclose(pts[-1], [1, -1, 1], atol=1e-15)
        cross = fig.series_points("intersection")[0]
        assert np.allclose(cross, [1 / 3, -1 / 3, 1 / 3], atol=1e-12)

    def test_unknown_point_series(self):
        fig = ew.export_figure_data("fig2", resolution=5)
        with pytest.raises(KeyError, match="no point series 'nope' in fig2"):
            fig.series_points("nope")

    def test_fig2_edge_counts(self):
        fig = ew.export_figure_data("fig2", resolution=5)
        assert len(fig.edges["tetrahedron"]) == 6
        assert len(fig.edges["octahedron"]) == 12

    def test_fig3_lines(self):
        fig = ew.export_figure_data("fig3", resolution=15)
        green = fig.series_points("chsh_line")
        assert np.max(np.abs(green.sum(axis=1) - RT2)) <= 1e-10
        gray = fig.series_points("strengthened_line")
        assert np.max(np.abs(gray.sum(axis=1) - 1.0)) <= 1e-10
        assert np.allclose(fig.series_points("intersection_chsh")[0],
                           [RT2 / 2, RT2 / 2], atol=1e-12)
        assert np.allclose(fig.series_points("intersection_strengthened")[0],
                           [0.5, 0.5], atol=1e-12)

    def test_fig3_edge_counts(self):
        fig = ew.export_figure_data("fig3", resolution=5)
        assert len(fig.edges["black_square"]) == 4
        assert len(fig.edges["blue_square"]) == 4

    def test_csv_round_trip(self):
        fig = ew.export_figure_data("fig2", resolution=6)
        rows = list(csv.DictReader(io.StringIO("".join(fig.csv_lines()))))
        cross = [r for r in rows if r["series"] == "intersection"]
        assert len(cross) == 1
        assert float(cross[0]["werner_z"]) == pytest.approx(1 / 3, abs=1e-12)
        plane_rows = [r for r in rows if r["series"] == "hyperplane"]
        for r in plane_rows:
            val = float(r["x1"]) - float(r["y1"]) + float(r["z1"])
            assert val == pytest.approx(1.0, abs=1e-10)
        edge_rows = [r for r in rows if r["kind"] == "edge"]
        assert all(r["x2"] != "" for r in edge_rows)

    def test_structured_export(self):
        fig = ew.export_figure_data("fig3", resolution=4)
        payload = json.loads("".join(fig.json_text()))
        assert payload["figure"] == "fig3"
        assert payload["dimension"] == 2
        series = {p["series"] for p in payload["points"]}
        assert {"chsh_line", "strengthened_line", "werner_line"} <= series
        empty = geometry.FigureData("empty", 2)
        assert "".join(empty.json_text()) == json.dumps(
            {"figure": "empty", "dimension": 2, "edges": [], "points": []}, indent=2) + "\n"

    def test_guards(self):
        with pytest.raises(ValueError):
            ew.export_figure_data("fig9")
        with pytest.raises(ValueError):
            ew.export_figure_data("fig2", resolution=1)

    @pytest.mark.parametrize("resolution", [1, 2.5, np.float64(3.0), True, "3",
                                            geometry.MAX_RESOLUTION + 1])
    def test_rejects_a_bad_resolution(self, resolution):
        # a ValueError, never a TypeError from inside the point arithmetic
        with pytest.raises(ValueError) as err:
            ew.export_figure_data("fig3", resolution=resolution)
        assert str(err.value) == (
            f"resolution must be an integer from 2 to 500, got {resolution!r}")

    @pytest.mark.parametrize("key", sorted(FIGURE_SHA256))
    def test_default_exports_keep_their_bytes(self, key):
        which, fmt = key
        fig = ew.export_figure_data(which)
        text = "".join(fig.csv_lines() if fmt == "csv" else fig.json_text())
        assert hashlib.sha256(text.encode()).hexdigest() == FIGURE_SHA256[key]

    @pytest.mark.parametrize("which,dimension", [("fig2", 3), ("fig3", 2)])
    @pytest.mark.parametrize("resolution", [2, 3, 16, 101])
    def test_exports_match_the_per_point_builder(self, which, dimension, resolution):
        fig = ew.export_figure_data(which, resolution)
        edges, points = reference_figure(which, resolution)
        assert "".join(fig.csv_lines()) == reference_csv(edges, points)
        assert "".join(fig.json_text()) == json.dumps(
            reference_dict(which, dimension, edges, points), indent=2) + "\n"


def clip_to_square(normal, offset):
    """Ends of the line {offset + normal . c = 0} inside [-1, 1]^2: its
    crossings with the square's four sides, each end once."""
    ends = []
    for axis, border in itertools.product((0, 1), (-1.0, 1.0)):
        other = 1 - axis
        val = -(offset + normal[axis] * border) / normal[other]
        if abs(val) <= 1.0 + 1e-12:
            end = np.empty(2)
            end[axis] = border
            end[other] = val
            if not any(np.allclose(end, e, atol=1e-9) for e in ends):
                ends.append(end)
    assert len(ends) == 2, ends
    return ends


def reference_figure(which, r):
    """Edges and points of a figure built one point at a time, in the order
    and with the float operations of the loops the array expressions in
    geometry replaced; kept as the oracle for their bytes.  The witness
    plane's face and lines are found from the witness tables: the octahedron
    vertices on the plane, and the line's crossings with the square."""
    def polytope_edges(series, vertices):
        center = vertices.mean(axis=0)
        return [(series, vertices[i].copy(), vertices[j].copy())
                for i, j in itertools.combinations(range(len(vertices)), 2)
                if not np.allclose(vertices[i] - center, -(vertices[j] - center), atol=1e-9)]

    edges, points = [], []
    chsh, strengthened = ew.fixed_chsh_witness(), ew.strengthened_chsh_witness()
    if which == "fig2":
        edges += polytope_edges("tetrahedron", geometry.TETRAHEDRON_VERTICES)
        edges += polytope_edges("octahedron", geometry.OCTAHEDRON_VERTICES)
        normal, offset = witness_plane(ew.werner_witness(), DIAG)
        v1, v2, v3 = [v for v in geometry.OCTAHEDRON_VERTICES
                      if abs(offset + normal @ v) < 1e-12]
        for i in range(r + 1):
            for j in range(r + 1 - i):
                l1 = i / r
                l2 = j / r
                l3 = 1.0 - l1 - l2
                points.append(("hyperplane", l1 * v1 + l2 * v2 + l3 * v3, None))
        werner_dir = np.array([1.0, -1.0, 1.0])
        crossings = [("intersection", ew.werner_witness())]
    else:
        edges += polytope_edges("black_square", geometry.SQUARE_VERTICES)
        edges += polytope_edges("blue_square", geometry.DIAMOND_VERTICES)
        for series, wit in (("chsh_line", chsh), ("strengthened_line", strengthened)):
            p, q = clip_to_square(*witness_plane(wit, XZ))
            for lam in np.linspace(0.0, 1.0, r):
                points.append((series, (1.0 - lam) * p + lam * q, None))
        werner_dir = np.array([1.0, 1.0])
        crossings = [("intersection_chsh", chsh), ("intersection_strengthened", strengthened)]
    for z in np.linspace(0.0, 1.0, r):
        points.append(("werner_line", z * werner_dir, float(z)))
    for series, wit in crossings:
        z_star = geometry.werner_line_intersection(wit)
        points.append((series, z_star * werner_dir, z_star))
    return edges, points


def reference_dict(which, dimension, edges, points):
    """The structured export, built from the per-point lists."""
    return {
        "figure": which,
        "dimension": dimension,
        "edges": [{"series": s, "from": list(map(float, p)), "to": list(map(float, q))}
                  for s, p, q in edges],
        "points": [{"series": s, "coords": list(map(float, p)),
                    **({} if z is None else {"werner_z": float(z)})}
                   for s, p, z in points],
    }


def reference_csv(edges, points):
    """The table FigureData.csv_lines must yield, written with the csv module."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "kind", "index", "werner_z", "x1", "y1", "z1", "x2", "y2", "z2"])

    def pad(p):
        return [f"{v:.17g}" for v in p] + [""] * (3 - len(p))

    for i, (series, p, q) in enumerate(edges):
        writer.writerow([series, "edge", i, ""] + pad(p) + pad(q))
    for i, (series, p, z) in enumerate(points):
        writer.writerow([series, "point", i, "" if z is None else f"{z:.17g}"] + pad(p) + [""] * 3)
    return buf.getvalue()
