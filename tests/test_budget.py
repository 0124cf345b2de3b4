"""Call budget of ``windex validate`` and ``windex check``: Python function
calls per face on sampled torus grids, counted with cProfile, so a slower
algorithm shows up as a count rather than as timing noise."""

import contextlib
import cProfile
import io
import pstats
from random import Random

from windex import cli
from windex.sampling import random_connection, random_field, random_lifts
from windex.scene import SceneFile, parse_scene_text, serialize_scene

from surfaces import torus_grid


def grid_scene(m: int) -> SceneFile:
    rng = Random(m)
    surface = torus_grid(m)
    conn = random_connection(surface, "link", rng)
    return SceneFile(surface, conn, random_lifts(conn, rng), random_field(conn, rng))


def profile_cli(command: str, m: int, tmp_path, *flags: str) -> pstats.Stats:
    """cProfile of one ``cli.main([command, *flags, path])`` on a sampled
    m x m grid."""
    path = tmp_path / f"grid{m}.json"
    path.write_text(serialize_scene(grid_scene(m)), encoding="utf-8")
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


def test_check_calls_per_face(tmp_path):
    small, large = profile_cli("check", 16, tmp_path), profile_cli("check", 32, tmp_path)
    faces = 2 * 32 * 32
    assert large.total_calls / faces <= 62, f"{large.total_calls} calls on {faces} faces"
    assert large.total_calls / small.total_calls <= 4.2, (
        f"{small.total_calls} calls at 16x16, {large.total_calls} at 32x32"
    )
    calls = calls_by_name(large)
    # faces key no table on this path, so no Python-level __hash__ runs
    hashes = sum(nc for (_, name), nc in calls.items() if name == "__hash__")
    assert hashes == 0, f"{hashes} __hash__ calls"
    # the path runs on id tables: no face or link object is built, and each
    # field label is read once
    assert calls.get(("complex.py", "__post_init__"), 0) == 0
    assert calls.get(("polygon.py", "__post_init__"), 0) == 0
    assert calls[("bundle.py", "position")] == 32 * 32


def test_validate_calls_per_face(tmp_path):
    calls = profile_cli("validate", 32, tmp_path).total_calls
    faces = 2 * 32 * 32
    assert calls / faces <= 54, f"{calls} calls on {faces} faces"


def test_serialize_and_basepoint_build_no_face(tmp_path):
    """Faces are written and basepoints checked from the id tables."""
    scene = parse_scene_text(serialize_scene(grid_scene(8)))
    profile = cProfile.Profile()
    profile.runcall(serialize_scene, scene)
    assert calls_by_name(pstats.Stats(profile)).get(("complex.py", "__post_init__"), 0) == 0
    key = scene.surface.keys[5]
    override = f"{key}={key.rpartition(',')[2]}"
    stats = profile_cli("index", 8, tmp_path, "--json", "--basepoint", override)
    assert calls_by_name(stats).get(("complex.py", "__post_init__"), 0) == 0
