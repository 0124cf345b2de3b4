"""Bounded fuzz of the CLI on edited golden scenes.

Each example makes one or two edits to a small golden scene: a structural
edit (delete a key or list item, duplicate a list item) or a leaf edit
(replace a node by an odd value or by another value found in the scene).
The edited scene goes through every scene subcommand, and the ``--json``
forms of the per-face reports; whether it is valid or not, the CLI must
answer with exit 0, 1 or 2 and let no exception escape, and every JSON
report it prints must be the text json.dumps(sort_keys=True, indent=2)
gives for it.  Derandomized, so every run tries the same examples.

Most of those edits break a JSON type that the parser checks first, so a
second test makes only edits that keep the type of what they change (an
int becomes another int, a str another str, two entries swap their edge
pairs), drawing each of those three kinds of site equally often.  Half
its int edits move by 12, a whole turn of every fiber in its scenes
(sizes 3 and 4), and keep the value's congruence class.  Its scenes reach
the builders and the reports, and a floor on the edited scenes that still
validate keeps it from drifting back to the parser.

The last tests edit lifts and steps at and past the digit limit, where a
total could have more digits than Python prints.
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from windex import cli
from windex.errors import ValidationFailed
from windex.scene import parse_scene_text, serialize_scene

from oracles import scene_to_obj

SCENES = Path(__file__).resolve().parent / "golden" / "scenes"
BASES = {
    name: json.loads((SCENES / f"{name}.json").read_text(encoding="utf-8"))
    for name in ("tet-link", "octa-link-a", "mixed-link")
}
COMMANDS = ("validate", "links", "curvature", "index", "check",
            "curvature --json", "index --json")
ODD_VALUES = (0, -1, 3, 2**70, 1.5, "", "0", "x~1", "a,b", None, True, [], {})
# labels the writers must escape: a lone surrogate, a backslash, non-ASCII
ODD_LABELS = ["\ud800", "a\\b", "é"]


def _children(node):
    if isinstance(node, dict):
        return node.items()
    if isinstance(node, list):
        return enumerate(node)
    return ()


def _positions(node, prefix=()):
    """Every key/index path below ``node``."""
    for key, child in _children(node):
        yield prefix + (key,)
        yield from _positions(child, prefix + (key,))


def _leaves(node):
    if not isinstance(node, (dict, list)):
        yield node
    for _, child in _children(node):
        yield from _leaves(child)


@st.composite
def edited_scenes(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    scene = copy.deepcopy(BASES[name])
    for _ in range(draw(st.integers(1, 2))):
        *route, key = draw(st.sampled_from(list(_positions(scene))))
        parent = scene
        for step in route:
            parent = parent[step]
        edit = draw(st.sampled_from(("delete", "duplicate", "replace")))
        if edit == "delete":
            del parent[key]
        elif edit == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            pool = ODD_VALUES + tuple(dict.fromkeys(_leaves(scene)))
            parent[key] = copy.deepcopy(draw(st.sampled_from(pool)))
    return name, scene


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scene.json"


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(edited=edited_scenes())
def test_edited_scenes_exit_cleanly(scene_file, edited):
    name, scene = edited
    scene_file.write_text(json.dumps(scene), encoding="utf-8")
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command.split() + [str(scene_file)])
        assert code in (0, 1, 2), (name, command, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), (name, command)
        if code == 0 and command.endswith("--json"):
            text = out.getvalue()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", (name, command)


def _sites(scene) -> dict[str, list]:
    """Every edit site that keeps a type, by kind: the path of each int, of
    each str, and of each list of two or more entries with an "edge" pair."""
    sites: dict[str, list] = {"int": [], "str": [], "edges": []}
    for path in _positions(scene):
        node = scene
        for step in path:
            node = node[step]
        if type(node) in (int, str):
            sites[type(node).__name__].append(path)
        elif type(node) is list and len(node) > 1 and all(
                type(entry) is dict and "edge" in entry for entry in node):
            sites["edges"].append(path)
    return {kind: paths for kind, paths in sites.items() if paths}


@st.composite
def near_valid_scenes(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    scene = copy.deepcopy(BASES[name])
    leaves = tuple(dict.fromkeys(_leaves(scene)))
    for _ in range(draw(st.integers(1, 2))):
        sites = _sites(scene)  # each kind as likely, so the labels do not drown the ints
        *route, key = draw(st.sampled_from(sites[draw(st.sampled_from(sorted(sites)))]))
        parent = scene
        for step in route:
            parent = parent[step]
        node = parent[key]
        if type(node) is list:
            i, j = draw(st.lists(st.integers(0, len(node) - 1), min_size=2, max_size=2, unique=True))
            node[i]["edge"], node[j]["edge"] = node[j]["edge"], node[i]["edge"]
            continue
        if type(node) is int and draw(st.booleans()):  # in its congruence class
            parent[key] = node + draw(st.sampled_from((-12, 12)))
            continue
        pool = [x for x in leaves if type(x) is type(node)]
        if type(node) is int:
            pool += [node + d for d in (-1, 1, -12, 12)]  # 12: a turn of fibers of size 3 and 4
        else:
            pool += ODD_LABELS
        parent[key] = draw(st.sampled_from([x for x in dict.fromkeys(pool) if x != node]))
    return name, scene


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(edited=near_valid_scenes())
def _near_valid_scenes_exit_cleanly(scene_file, validated, edited):
    """The checks of test_edited_scenes_exit_cleanly; appends to
    ``validated`` the name of each edited scene, one that differs from its
    base, that ``validate`` accepts.  The ``serialize_scene`` text of each
    scene it accepts must be the encoder's and serialize again unchanged
    once parsed."""
    name, scene = edited
    scene_file.write_text(json.dumps(scene), encoding="utf-8")
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command.split() + [str(scene_file)])
        assert code in (0, 1, 2), (name, command, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), (name, command)
        if code == 0 and command == "validate":
            if scene != BASES[name]:  # a second edit can undo the first
                validated.append(name)
            parsed = parse_scene_text(scene_file.read_text(encoding="utf-8"))
            text = serialize_scene(parsed)
            assert text == json.dumps(scene_to_obj(parsed), sort_keys=True, indent=2) + "\n", name
            assert serialize_scene(parse_scene_text(text)) == text, name
        if code == 0 and command.endswith("--json"):
            text = out.getvalue()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", (name, command)


def test_near_valid_scenes_exit_cleanly(scene_file):
    validated = []
    _near_valid_scenes_exit_cleanly(scene_file, validated)
    # 20 of the 200 are edited and validate
    assert len(validated) >= 15, f"{len(validated)} of 200 near-valid scenes validate"


def _past_the_digit_limit(section: str) -> dict:
    """octa-link-a with every lift, or the three steps around face b,o,y,
    raised by 9 * 10**4299, a multiple of the fiber size 4: 4,300 digits,
    which JSON reads, and a total flatness winding or a swirl of 4,301."""
    scene = copy.deepcopy(BASES["octa-link-a"])
    if section == "flatness":
        scene["flatness"] = {key: lift + 9 * 10**4299 for key, lift in scene["flatness"].items()}
    else:
        steps = {tuple(entry["edge"]): entry for entry in scene["field"]["steps"]}
        for edge, sign in ((("b", "o"), 1), (("o", "y"), 1), (("b", "y"), -1)):
            steps[edge]["steps"] += sign * 9 * 10**4299
    return scene


@pytest.mark.parametrize("section", ["flatness", "field"])
def test_lifts_and_steps_past_the_digit_limit_exit_2_from_every_command(
        capsys, scene_file, section):
    """No report could print such a total: every command refuses the scene
    with exit 2 and the message ``validate`` gives, naming the rule."""
    scene_file.write_text(json.dumps(_past_the_digit_limit(section)), encoding="utf-8")
    errors = set()
    for command in COMMANDS:
        assert cli.main(command.split() + [str(scene_file)]) == 2, command
        errors.add(capsys.readouterr().err)
    (error,) = errors
    assert error.startswith("validation error: ") and "TooManyDigits" in error


@pytest.mark.parametrize("limit", [None, 1000], ids=["default-limit", "lowered-limit"])
@pytest.mark.parametrize("section", ["flatness", "field"])
def test_lifts_and_steps_at_the_digit_limit(limit, section):
    """A lift or a step count may have half as many digits as the
    int_max_str_digits cap, and not one more, also after it changes."""
    scene = copy.deepcopy(BASES["octa-link-a"])
    entry, field, fault = scene["flatness"], "b,o,y", "[b,o,y]: lift"
    if section == "field":
        entry, field, fault = scene["field"]["steps"][0], "steps", "[(b,o)]: step count"
    saved = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        digits = (limit or saved or sys.int_info.default_max_str_digits) // 2
        for sign in (1, -1):  # the values mod 4 on either side of sign * 10**digits
            entry[field] += sign * 4 * ((10**digits - 1 - sign * entry[field]) // 4)
            assert len(str(abs(entry[field]))) == digits
            parse_scene_text(json.dumps(scene))
            entry[field] += sign * 4
            with pytest.raises(ValidationFailed) as excinfo:
                parse_scene_text(json.dumps(scene))
            want = f"TooManyDigits {fault} has more than {digits} digits"
            assert str(excinfo.value).endswith(want)
    finally:
        sys.set_int_max_str_digits(saved)
