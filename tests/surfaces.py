"""Test surfaces beyond ``windex.fixtures``, one definition each, shared by
the tests and by tests/golden/generate.py."""

from windex.complex import build_surface
from windex.fixtures import boundary_delta3, octahedron


def bipyramid():
    """Poles of degree 5 over an equatorial 5-cycle of degree 4: the
    simplest closed surface with unequal degrees, so only refined modes
    apply."""
    c = [f"c{i}" for i in range(5)]
    faces = []
    for i in range(5):
        j = (i + 1) % 5
        faces += [("n", c[i], c[j]), ("s", c[j], c[i])]
    return build_surface(["n", "s"] + c, faces)


def tet_and_octahedron():
    """A disjoint tetrahedron and octahedron: link fibers of sizes 3 and 4
    on one surface."""
    tet, octa = boundary_delta3(), octahedron()
    return build_surface(
        list(tet.vertices) + list(octa.vertices),
        [f.vertices for f in tet.faces] + [f.vertices for f in octa.faces],
    )


def torus_grid(m: int):
    """The m x m torus grid, each square cut along its diagonal; every
    vertex has degree 6, so link mode applies."""
    def v(i, j):
        return f"v{i % m}_{j % m}"

    faces = []
    for i in range(m):
        for j in range(m):
            faces += [(v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                      (v(i, j), v(i + 1, j + 1), v(i, j + 1))]
    return build_surface([v(i, j) for i in range(m) for j in range(m)], faces)
