"""Scene files: the JSON interchange format for the CLI.

A scene is a UTF-8 JSON object with a mandatory ``surface`` section and
optional ``connection``, ``flatness`` and ``field`` sections::

    {
      "surface": {
        "vertices": ["w", "y", ...],
        "faces": [["w", "b", "r"], ...],
        "positions": {"w": ["0", "0", "1"], ...}        // optional, rationals
      },
      "connection": {
        "fiber_mode": "link",                            // or {"refined": N}
        "transports": [
          {"edge": ["w", "r"], "anchor": ["b", "b"]},    // or "map": {...}
        ]
      },
      "flatness": {"b,r,w": 1, ...},                     // canonical face keys
      "field": {
        "at": {"w": "r", ...},
        "steps": [{"edge": ["w", "r"], "steps": 1}, ...]
      }
    }

Unknown keys are rejected.  Structural problems raise SceneParseError;
semantic problems surface as ValidationFailed from the builders.
Serialization is canonical (sorted keys, least-rotation face lists,
lexicographic edge directions, anchors at the fiber's first label), so
parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bundle import (
    LINK_MODE,
    DiscreteConnection,
    FlatnessStructure,
    attach_flatness,
    build_connection,
)
from .complex import OrientedSurface, build_surface
from .errors import WindexError
from .field import VectorField, build_field


class SceneParseError(WindexError):
    """The file is not a structurally well-formed scene."""


@dataclass(frozen=True)
class SceneFile:
    surface: OrientedSurface
    connection: DiscreteConnection | None = None
    flatness: FlatnessStructure | None = None
    field: VectorField | None = None


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise SceneParseError(f"{where}: expected an object")
    if obj.keys() <= allowed and required <= obj.keys():
        return
    unknown = set(obj) - allowed
    if unknown:
        raise SceneParseError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SceneParseError(f"{where}: missing keys {sorted(missing)}")


def _coordinate(value, where: str) -> Fraction:
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(str(value))
        if isinstance(value, str):
            # the cap on JSON integers: beyond it a coordinate cannot be
            # printed again, and a huge exponent stalls Fraction() itself
            limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
            exponent = value.lower().partition("e")[2]
            if exponent and abs(int(exponent)) > limit + len(value):
                raise ValueError
            frac = Fraction(value)
            if max(abs(frac.numerator), frac.denominator) < 10**limit:
                return frac
    except (ValueError, ZeroDivisionError):
        pass
    raise SceneParseError(f"{where}: cannot read {value!r} as a rational coordinate")


def _parse_surface(obj) -> OrientedSurface:
    _require_keys(obj, {"vertices", "faces", "positions"}, {"vertices", "faces"}, "surface")
    vertices = obj["vertices"]
    faces = obj["faces"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise SceneParseError("surface.vertices: expected a list of strings")
    if not isinstance(faces, list) or not all(
        isinstance(f, list) and all(isinstance(v, str) for v in f) for f in faces
    ):
        raise SceneParseError("surface.faces: expected a list of vertex lists")
    positions = None
    if "positions" in obj:
        raw = obj["positions"]
        if not isinstance(raw, dict):
            raise SceneParseError("surface.positions: expected an object")
        positions = {}
        for v, coords in raw.items():
            if not isinstance(coords, list) or len(coords) != 3:
                raise SceneParseError(f"surface.positions[{v!r}]: expected 3 coordinates")
            positions[v] = tuple(_coordinate(c, f"surface.positions[{v!r}]") for c in coords)
    return build_surface(vertices, [tuple(f) for f in faces], positions)


def _parse_fiber_mode(value):
    if value == LINK_MODE:
        return LINK_MODE
    if isinstance(value, dict):
        _require_keys(value, {"refined"}, {"refined"}, "connection.fiber_mode")
        size = value["refined"]
        if not isinstance(size, int) or size < 3:
            raise SceneParseError("connection.fiber_mode.refined: expected an integer >= 3")
        return size
    raise SceneParseError('connection.fiber_mode: expected "link" or {"refined": N}')


def _parse_edge(value, where: str) -> tuple[str, str]:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(v, str) for v in value)
    ):
        raise SceneParseError(f"{where}: expected a pair of vertex labels")
    return (value[0], value[1])


def _parse_connection(obj, surface: OrientedSurface) -> DiscreteConnection:
    _require_keys(obj, {"fiber_mode", "transports"}, {"fiber_mode", "transports"}, "connection")
    mode = _parse_fiber_mode(obj["fiber_mode"])
    raw = obj["transports"]
    if not isinstance(raw, list):
        raise SceneParseError("connection.transports: expected a list")
    transports = {}
    for k, entry in enumerate(raw):
        where = f"connection.transports[{k}]"
        _require_keys(entry, {"edge", "anchor", "map"}, {"edge"}, where)
        edge = _parse_edge(entry["edge"], f"{where}.edge")
        if edge in transports:
            raise SceneParseError(f"{where}: duplicate entry for edge {edge}")
        if ("anchor" in entry) == ("map" in entry):
            raise SceneParseError(f"{where}: give exactly one of 'anchor' or 'map'")
        if "anchor" in entry:
            anchor = entry["anchor"]
            if (
                not isinstance(anchor, list)
                or len(anchor) != 2
                or not all(isinstance(a, str) for a in anchor)
            ):
                raise SceneParseError(f"{where}.anchor: expected a pair of fiber labels")
            transports[edge] = (anchor[0], anchor[1])
        else:
            mapping = entry["map"]
            if not isinstance(mapping, dict) or not all(
                isinstance(a, str) and isinstance(b, str) for a, b in mapping.items()
            ):
                raise SceneParseError(f"{where}.map: expected an object of label pairs")
            transports[edge] = dict(mapping)
    return build_connection(surface, mode, transports)


def _parse_flatness(obj, conn: DiscreteConnection) -> FlatnessStructure:
    if not isinstance(obj, dict) or not all(
        isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
        for k, v in obj.items()
    ):
        raise SceneParseError("flatness: expected an object of face-key -> integer")
    return attach_flatness(conn, obj)


def _parse_field(obj, conn: DiscreteConnection) -> VectorField:
    _require_keys(obj, {"at", "steps"}, {"at", "steps"}, "field")
    at = obj["at"]
    if not isinstance(at, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in at.items()
    ):
        raise SceneParseError("field.at: expected an object of vertex -> fiber label")
    raw = obj["steps"]
    if not isinstance(raw, list):
        raise SceneParseError("field.steps: expected a list")
    steps = {}
    for k, entry in enumerate(raw):
        where = f"field.steps[{k}]"
        _require_keys(entry, {"edge", "steps"}, {"edge", "steps"}, where)
        edge = _parse_edge(entry["edge"], f"{where}.edge")
        if edge in steps:
            raise SceneParseError(f"{where}: duplicate entry for edge {edge}")
        count = entry["steps"]
        if not isinstance(count, int) or isinstance(count, bool):
            raise SceneParseError(f"{where}.steps: expected an integer")
        steps[edge] = count
    return build_field(conn, at, steps)


def parse_scene_text(text: str) -> SceneFile:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int_max_str_digits
        raise SceneParseError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SceneParseError("not valid JSON: nested too deeply") from None
    _require_keys(obj, {"surface", "connection", "flatness", "field"}, {"surface"}, "scene")
    surface = _parse_surface(obj["surface"])
    connection = flatness = field = None
    if "connection" in obj:
        connection = _parse_connection(obj["connection"], surface)
    if "flatness" in obj:
        if connection is None:
            raise SceneParseError("flatness: needs a connection section")
        flatness = _parse_flatness(obj["flatness"], connection)
    if "field" in obj:
        if connection is None:
            raise SceneParseError("field: needs a connection section")
        field = _parse_field(obj["field"], connection)
    return SceneFile(surface, connection, flatness, field)


def parse_scene(path: str) -> SceneFile:
    """Read a scene from a file path, or from stdin when path is '-'."""
    try:
        if path == "-":
            text = sys.stdin.read()
            # stdin may decode with surrogateescape, which turns every byte
            # that is not UTF-8 into a lone surrogate instead of failing
            text.encode("utf-8")
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeError:
        raise SceneParseError("not valid UTF-8") from None
    return parse_scene_text(text)


def scene_to_obj(scene: SceneFile) -> dict:
    surface = scene.surface
    obj: dict = {
        "surface": {
            "vertices": list(surface.vertices),
            "faces": [list(f.vertices) for f in surface.faces],
        }
    }
    if surface.positions is not None:
        obj["surface"]["positions"] = {
            v: [str(Fraction(c)) for c in coords]
            for v, coords in sorted(surface.positions.items())
        }
    conn = scene.connection
    if conn is not None:
        mode = "link" if conn.refined is None else {"refined": conn.refined}
        entries = []
        for a, b in conn.surface.edges:
            anchor = [conn.label_at(a, 0), conn.label_at(b, conn.offsets[(a, b)])]
            entries.append({"edge": [a, b], "anchor": anchor})
        obj["connection"] = {"fiber_mode": mode, "transports": entries}
    if scene.flatness is not None:
        obj["flatness"] = {
            f.key: scene.flatness.lift(f) for f in surface.faces
        }
    if scene.field is not None:
        obj["field"] = {
            "at": {v: scene.field.value(v) for v in surface.vertices},
            "steps": [
                {"edge": [a, b], "steps": scene.field.step(a, b)}
                for a, b in surface.edges
            ],
        }
    return obj


def serialize_scene(scene: SceneFile) -> str:
    return json.dumps(scene_to_obj(scene), indent=2, sort_keys=True) + "\n"
