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
from windex.scene import SceneFile, serialize_scene

from surfaces import torus_grid


def profile_cli(command: str, m: int, tmp_path) -> pstats.Stats:
    """cProfile of one ``cli.main([command, path])`` on a sampled m x m grid."""
    rng = Random(m)
    surface = torus_grid(m)
    conn = random_connection(surface, "link", rng)
    scene = SceneFile(surface, conn, random_lifts(conn, rng), random_field(conn, rng))
    path = tmp_path / f"grid{m}.json"
    path.write_text(serialize_scene(scene), encoding="utf-8")
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        code = profile.runcall(cli.main, [command, str(path)])
    assert code == 0
    return pstats.Stats(profile)


def test_check_calls_per_face(tmp_path):
    small, large = profile_cli("check", 16, tmp_path), profile_cli("check", 32, tmp_path)
    faces = 2 * 32 * 32
    assert large.total_calls / faces <= 62, f"{large.total_calls} calls on {faces} faces"
    assert large.total_calls / small.total_calls <= 4.2, (
        f"{small.total_calls} calls at 16x16, {large.total_calls} at 32x32"
    )
    # faces key no table on this path, so no Python-level __hash__ runs
    hashes = sum(nc for (_, _, name), (_, nc, *_) in large.stats.items() if name == "__hash__")
    assert hashes == 0, f"{hashes} __hash__ calls"
    # the path runs on id tables: no face or link object is built, and each
    # field label is read once
    calls = {(path.rpartition("/")[2], name): nc
             for (path, _, name), (_, nc, *_) in large.stats.items()}
    assert calls.get(("complex.py", "__post_init__"), 0) == 0
    assert calls.get(("polygon.py", "__post_init__"), 0) == 0
    assert calls[("bundle.py", "position")] == 32 * 32


def test_validate_calls_per_face(tmp_path):
    calls = profile_cli("validate", 32, tmp_path).total_calls
    faces = 2 * 32 * 32
    assert calls / faces <= 54, f"{calls} calls on {faces} faces"
