"""Test surfaces beyond ``windex.fixtures``, one definition each, shared by
the tests and by tests/golden/generate.py."""

from itertools import product

from windex.complex import build_surface
from windex.errors import ValidationFailed
from windex.fixtures import boundary_delta3, csaszar_torus, octahedron


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


def connected_sum(a, b):
    """The connected sum of two surfaces: the first face of each is cut
    out, the second's labels are primed, and a tube of six triangles
    joins the two holes, vertex i of the first hole to vertex i of the
    second matched one way round and the quad between each pair of matched
    edges cut along a diagonal.  The first matching and orientation that
    ``build_surface`` accepts is used; the genus adds up."""
    rename = {v: f"{v}'" for v in b.vertices}
    cut_a, cut_b = a.faces[0].vertices, [rename[v] for v in b.faces[0].vertices]
    faces = [f.vertices for f in a.faces[1:]]
    faces += [tuple(rename[v] for v in f.vertices) for f in b.faces[1:]]
    vertices = list(a.vertices) + list(rename.values())
    for shift, step, flip in product(range(3), (1, -1), (False, True)):
        q = [cut_b[(shift + step * i) % 3] for i in range(3)]
        tube = []
        for i in range(3):
            j = (i + 1) % 3
            tube += [(cut_a[i], cut_a[j], q[j]), (cut_a[i], q[j], q[i])]
        if flip:
            tube = [(x, z, y) for x, y, z in tube]
        try:
            return build_surface(vertices, faces + tube)
        except ValidationFailed:
            pass
    raise AssertionError("no tube closes the two holes")


def genus2():
    """Two Csaszar tori joined by ``connected_sum``: V = 14, E = 48,
    F = 32, Euler characteristic -2, vertex degrees 6 and 8."""
    return connected_sum(csaszar_torus(), csaszar_torus())


def genus3():
    """A Csaszar torus joined to ``genus2()``: V = 21, E = 75, F = 50,
    Euler characteristic -4, vertex degrees 6, 8 and 10.  The torus comes
    first because ``connected_sum`` primes its second summand's labels,
    which in ``genus2()`` are primed already."""
    return connected_sum(csaszar_torus(), genus2())
