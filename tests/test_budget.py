"""Call budget of ``windex validate``, ``check`` and ``curvature`` and of
``swirl_path``: calls per face on sampled torus grids, counted with
cProfile, so a slower algorithm shows up as a count rather than as timing
noise.

cProfile counts every Python function call, and every call of a C
function made from bytecode, such as ``dict.get``.  It does not count the
calls that a C iterator makes, such as those of ``map(index.__getitem__,
...)``, so a loop made faster by writing its lookups out in bytecode can
show more calls: a budget bounds the work the counted calls stand for, not
the time."""

import argparse
import contextlib
import cProfile
import gc
import io
import pstats
from fractions import Fraction

from windex import bundle, cli, scene as scene_module
from windex.complex import OrientedSurface
from windex.bundle import DiscreteConnection, canonical_flatness
from windex.field import IndexReport, IndexRow, swirl_path, totals
from windex.scene import parse_scene_text, serialize_scene

import polygon
from sampling import grid_scene


def profile_cli(command: str, m: int, tmp_path, *flags: str) -> pstats.Stats:
    """cProfile of one ``cli.main([command, *flags, path])`` on a sampled
    m x m grid.  The process's one parser is built first, so the counts do
    not depend on whether an earlier test has called ``cli.main``."""
    path = tmp_path / f"grid{m}.json"
    path.write_text(serialize_scene(grid_scene(m)), encoding="utf-8")
    cli.build_parser()
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        code = profile.runcall(cli.main, [command, *flags, str(path)])
    assert code == 0
    return pstats.Stats(profile)


def calls_by_name(stats: pstats.Stats) -> dict[tuple[str, str], int]:
    """(file name, function name) -> number of calls."""
    calls: dict[tuple[str, str], int] = {}
    for (path, _, name), (_, nc, *_) in stats.stats.items():
        key = (path.rpartition("/")[2], name)
        calls[key] = calls.get(key, 0) + nc
    return calls


def code_key(function) -> tuple[str, int, str]:
    """The key of ``function`` in ``pstats.Stats.stats``."""
    code = function.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def test_check_calls_per_face(tmp_path):
    small, large = profile_cli("check", 16, tmp_path), profile_cli("check", 32, tmp_path)
    faces = 2 * 32 * 32
    assert large.total_calls / faces <= 38, f"{large.total_calls} calls on {faces} faces"
    assert large.total_calls / small.total_calls <= 4.2, (
        f"{small.total_calls} calls at 16x16, {large.total_calls} at 32x32"
    )
    calls = calls_by_name(large)
    # faces key no table on this path, so no Python-level __hash__ runs
    hashes = sum(nc for (_, name), nc in calls.items() if name == "__hash__")
    assert hashes == 0, f"{hashes} __hash__ calls"
    # the path runs on id tables: no link object is built, and each field
    # and anchor label is read once, a link label inline off its half-edge:
    # _read_label reads only the labels that miss there, x~j labels, which
    # a link-mode scene has none of
    assert calls.get(("polygon.py", "__post_init__"), 0) == 0
    assert calls.get(("bundle.py", "_read_label"), 0) == 0
    assert calls.get(("bundle.py", "_position"), 0) == 0


def test_validate_calls_per_face(tmp_path):
    calls = profile_cli("validate", 32, tmp_path).total_calls
    faces = 2 * 32 * 32
    assert calls / faces <= 38, f"{calls} calls on {faces} faces"


def test_the_verdict_builds_no_index_row(tmp_path):
    """``check`` and ``index --json`` read the report's columns: its rows
    are never read, so no ``IndexRow`` is built.  Reading them builds one
    per face."""
    rows, new_row = code_key(IndexReport.rows.func), code_key(IndexRow.__new__)
    for argv in (["check"], ["index", "--json"]):
        stats = profile_cli(argv[0], 32, tmp_path, *argv[1:]).stats
        assert rows not in stats, argv
        # every named tuple's __new__ has this key: none is built at all
        assert new_row not in stats, argv
    vf = grid_scene(4).field
    profile = cProfile.Profile()
    profile.runcall(lambda: totals(vf, canonical_flatness(vf.conn)).rows)
    stats = pstats.Stats(profile).stats
    assert stats[rows][1] == 1 and stats[new_row][1] == 2 * 4 * 4


def test_curvature_builds_no_row_and_no_fraction_per_face(tmp_path):
    """``curvature`` and ``curvature --json`` write their turns from the
    columns: no named tuple is built, so no row of any report, and the
    ``Fraction``s made for the two totals are as many on a 4x4 grid as on
    a 32x32 one."""
    new_row, new_fraction = code_key(IndexRow.__new__), code_key(Fraction.__new__)
    for flags in ([], ["--json"]):
        small, large = (profile_cli("curvature", m, tmp_path, *flags).stats for m in (4, 32))
        assert new_row not in small and new_row not in large, flags
        assert small[new_fraction][1] == large[new_fraction][1], flags


def test_reading_builds_no_link_labels(tmp_path):
    """Links are read as ring positions by half-edge: ``validate``,
    ``check`` and ``index --json`` never build the label view, which
    ``links`` prints."""
    link_labels = code_key(OrientedSurface.link_labels.func)
    for argv in (["validate"], ["check"], ["index", "--json"]):
        assert link_labels not in profile_cli(argv[0], 32, tmp_path, *argv[1:]).stats, argv
    assert link_labels in profile_cli("links", 4, tmp_path).stats


def test_reading_builds_no_face_record(tmp_path):
    """Faces are read as id tables and keys: ``validate``, ``check`` and
    ``index --json`` never build ``OrientedSurface.faces``, which
    ``swirl_path``'s callers read (``serialize_scene`` is checked below)."""
    faces = code_key(OrientedSurface.faces.func)
    for argv in (["validate"], ["check"], ["index", "--json"]):
        assert faces not in profile_cli(argv[0], 32, tmp_path, *argv[1:]).stats, argv
    surface = grid_scene(4).surface
    profile = cProfile.Profile()
    profile.runcall(lambda: surface.faces)
    assert faces in pstats.Stats(profile).stats


def test_a_second_call_builds_no_parser(tmp_path):
    """``cli.main`` builds its argparse parser on its first call only."""
    stats = profile_cli("validate", 4, tmp_path)
    assert code_key(argparse.ArgumentParser.__init__) not in stats.stats


def test_swirl_path_builds_no_transport():
    """``swirl_path`` reads the tables: at every corner of every face of a
    sampled 32x32 grid it runs no code of the reference polygon algebra."""
    vf = grid_scene(32).field
    corners = [(face, v) for face in vf.conn.surface.faces for v in face.vertices]
    profile = cProfile.Profile()
    paths = profile.runcall(lambda: [swirl_path(vf, face, v) for face, v in corners])
    assert len(paths) == 3 * 2 * 32 * 32
    stats = pstats.Stats(profile).stats
    reference = [key for key in stats if key[0] == polygon.__file__]
    assert reference == [], reference


def test_builders_check_the_fiber_mode_once():
    """A builder checks its fiber mode in ``_fiber_sizes`` and hands the
    constructor the checked sizes and the offsets it has made, which are
    not scanned again; ``gauge_transform`` keeps its connection's sizes and
    checks none.  Only a direct constructor call checks its offsets."""
    conn = grid_scene(8).connection
    calls = {}
    for name, build in [
        ("build_connection", lambda: bundle.build_connection(
            conn.surface, "link", {(a, b): (b, a) for a, b in conn.surface.edges})),
        ("tangent_connection", lambda: bundle.tangent_connection(conn.surface, "link")),
        ("flat_connection", lambda: bundle.flat_connection(conn.surface, "link")),
        ("gauge_transform", lambda: bundle.gauge_transform(conn, {})),
        ("DiscreteConnection", lambda: bundle.DiscreteConnection(
            conn.surface, None, list(conn.offsets))),
    ]:
        profile = cProfile.Profile()
        profile.runcall(build)
        stats = pstats.Stats(profile).stats
        calls[name] = tuple(stats.get(code_key(check), (0, 0))[1]
                            for check in (bundle._refinement, bundle._check_offsets))
    assert calls == {"build_connection": (1, 0), "tangent_connection": (1, 0),
                     "flat_connection": (1, 0), "gauge_transform": (0, 0),
                     "DiscreteConnection": (1, 1)}


def encoder_frames(stats: pstats.Stats) -> list:
    """The functions of the stdlib's pure-Python json encoder that ran."""
    return [key for key in stats.stats if key[0].replace("\\", "/").endswith("json/encoder.py")]


def test_serialize_and_basepoint_build_no_face(tmp_path):
    """Faces are written and basepoints checked from the id tables, so
    ``OrientedSurface.faces`` never runs, and a scene or a --json report is
    written directly: no json.dumps call, and no frame of the pure-Python
    encoder."""
    scene = parse_scene_text(serialize_scene(grid_scene(8)))
    profile = cProfile.Profile()
    profile.runcall(serialize_scene, scene)
    key = scene.surface.keys[5]
    override = f"{key}={key.rpartition(',')[2]}"
    for stats in (pstats.Stats(profile),
                  profile_cli("index", 8, tmp_path, "--json", "--basepoint", override)):
        calls = calls_by_name(stats)
        assert code_key(OrientedSurface.faces.func) not in stats.stats
        assert calls.get(("__init__.py", "dumps"), 0) == 0
        assert encoder_frames(stats) == []


def test_serialize_scene_calls_do_not_grow_with_the_surface():
    """``serialize_scene`` writes every table from its columns: on a 4x4
    and a 32x32 link-mode grid it makes the same number of counted calls,
    none of them a per-label ``DiscreteConnection._label`` or the nested
    ``json_text``.  A first write makes the digit bound, cached per
    process, so the counts do not depend on whether an earlier test has;
    the collector is paused, since the ``gc.callbacks`` a test library
    registers are counted calls whenever a collection runs."""
    serialize_scene(grid_scene(4))
    totals, collecting = [], gc.isenabled()
    for m in (4, 32):
        scene = grid_scene(m)
        profile = cProfile.Profile()
        gc.disable()
        try:
            profile.runcall(serialize_scene, scene)
        finally:
            if collecting:
                gc.enable()
        stats = pstats.Stats(profile)
        assert code_key(DiscreteConnection._label) not in stats.stats, m
        assert code_key(scene_module.json_text) not in stats.stats, m
        totals.append(stats.total_calls)
    assert totals[0] == totals[1], totals


def test_a_write_starts_no_collection():
    """``serialize_scene`` makes a fixed number of containers, none per
    vertex: writing a link-mode 32x32 grid (1,024 vertices) right after a
    full collection sets off no collection, counted by a ``gc.callbacks``
    entry."""
    scene, starts, collecting = grid_scene(32), [], gc.isenabled()

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        serialize_scene(scene)
    finally:
        gc.callbacks.remove(count)
        if not collecting:
            gc.disable()
    assert starts == []
