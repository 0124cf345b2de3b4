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
semantic problems surface as ValidationFailed from the builders, which
intern the labels into the surface's integer id tables once; every later
section is read into lists by half-edge, face or vertex id.
Serialization writes labels back from those tables and is canonical
(sorted keys, least-rotation face lists, lexicographic edge directions,
anchors at the fiber's first label), so parse -> serialize -> parse is
the identity.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

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


def _key_error(obj, allowed, required, where: str) -> SceneParseError:
    """The error for ``obj`` when it is not an object whose keys lie in
    ``allowed`` and include ``required``."""
    if type(obj) is not dict:
        return SceneParseError(f"{where}: expected an object")
    unknown = obj.keys() - allowed
    if unknown:
        return SceneParseError(f"{where}: unknown keys {sorted(unknown)}")
    return SceneParseError(f"{where}: missing keys {sorted(required - obj.keys())}")


def _require_keys(obj, allowed, required, where: str) -> None:
    if not (type(obj) is dict and obj.keys() <= allowed and required <= obj.keys()):
        raise _key_error(obj, allowed, required, where)


def _only(kind: type, values) -> bool:
    """Whether every value is exactly of type ``kind``; JSON decodes to
    exact types, and ``bool`` is not ``int`` here."""
    return set(map(type, values)) <= {kind}


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
    if not (type(vertices) is list and _only(str, vertices)):
        raise SceneParseError("surface.vertices: expected a list of strings")
    if not (type(faces) is list and _only(list, faces) and _only(str, chain.from_iterable(faces))):
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
    return build_surface(vertices, faces, positions)


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


_TRANSPORT_KEYS = frozenset({"edge", "anchor", "map"})
_STEP_KEYS = frozenset({"edge", "steps"})


def _parse_connection(obj, surface: OrientedSurface) -> DiscreteConnection:
    """Each entry is checked inline; its place in the file is spelled out
    only for the error when a check fails."""
    _require_keys(obj, {"fiber_mode", "transports"}, {"fiber_mode", "transports"}, "connection")
    mode = _parse_fiber_mode(obj["fiber_mode"])
    raw = obj["transports"]
    where = "connection.transports"
    if type(raw) is not list:
        raise SceneParseError(f"{where}: expected a list")
    transports = {}
    for k, entry in enumerate(raw):
        if not (type(entry) is dict and entry.keys() <= _TRANSPORT_KEYS and "edge" in entry):
            raise _key_error(entry, _TRANSPORT_KEYS, {"edge"}, f"{where}[{k}]")
        pair = entry["edge"]
        if not (type(pair) is list and len(pair) == 2
                and type(pair[0]) is str and type(pair[1]) is str):
            raise SceneParseError(f"{where}[{k}].edge: expected a pair of vertex labels")
        edge = (pair[0], pair[1])
        if edge in transports:
            raise SceneParseError(f"{where}[{k}]: duplicate entry for edge {edge}")
        if ("anchor" in entry) == ("map" in entry):
            raise SceneParseError(f"{where}[{k}]: give exactly one of 'anchor' or 'map'")
        if "anchor" in entry:
            pair = entry["anchor"]
            if not (type(pair) is list and len(pair) == 2
                    and type(pair[0]) is str and type(pair[1]) is str):
                raise SceneParseError(f"{where}[{k}].anchor: expected a pair of fiber labels")
            transports[edge] = (pair[0], pair[1])
        else:
            mapping = entry["map"]
            if not (type(mapping) is dict and _only(str, mapping) and _only(str, mapping.values())):
                raise SceneParseError(f"{where}[{k}].map: expected an object of label pairs")
            transports[edge] = dict(mapping)
    return build_connection(surface, mode, transports)


def _parse_flatness(obj, conn: DiscreteConnection) -> FlatnessStructure:
    if not (type(obj) is dict and _only(str, obj) and _only(int, obj.values())):
        raise SceneParseError("flatness: expected an object of face-key -> integer")
    return attach_flatness(conn, obj)


def _parse_field(obj, conn: DiscreteConnection) -> VectorField:
    """Each step entry is checked inline, as in ``_parse_connection``."""
    _require_keys(obj, {"at", "steps"}, {"at", "steps"}, "field")
    at = obj["at"]
    if not (type(at) is dict and _only(str, at) and _only(str, at.values())):
        raise SceneParseError("field.at: expected an object of vertex -> fiber label")
    raw = obj["steps"]
    where = "field.steps"
    if type(raw) is not list:
        raise SceneParseError(f"{where}: expected a list")
    steps = {}
    for k, entry in enumerate(raw):
        if not (type(entry) is dict and entry.keys() == _STEP_KEYS):
            raise _key_error(entry, _STEP_KEYS, _STEP_KEYS, f"{where}[{k}]")
        pair = entry["edge"]
        if not (type(pair) is list and len(pair) == 2
                and type(pair[0]) is str and type(pair[1]) is str):
            raise SceneParseError(f"{where}[{k}].edge: expected a pair of vertex labels")
        edge = (pair[0], pair[1])
        if edge in steps:
            raise SceneParseError(f"{where}[{k}]: duplicate entry for edge {edge}")
        count = entry["steps"]
        if type(count) is not int:
            raise SceneParseError(f"{where}[{k}].steps: expected an integer")
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
    labels, tails, heads = surface.vertices, surface.tails, surface.heads
    obj: dict = {
        "surface": {
            "vertices": list(labels),
            "faces": [[labels[tails[h]], labels[tails[h + 1]], labels[tails[h + 2]]]
                      for h in range(0, len(tails), 3)],
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
        for h in surface.edge_half:
            a, b = tails[h], heads[h]
            anchor = [conn._label(a, 0), conn._label(b, conn.offsets[h])]
            entries.append({"edge": [labels[a], labels[b]], "anchor": anchor})
        obj["connection"] = {"fiber_mode": mode, "transports": entries}
    if scene.flatness is not None:
        obj["flatness"] = dict(zip(surface.keys, scene.flatness.lifts))
    field = scene.field
    if field is not None:
        obj["field"] = {
            "at": {v: field.conn._label(i, x) for i, (v, x) in enumerate(zip(labels, field.at))},
            "steps": [
                {"edge": [labels[tails[h]], labels[heads[h]]], "steps": field.steps[h]}
                for h in surface.edge_half
            ],
        }
    return obj


def serialize_scene(scene: SceneFile) -> str:
    return json.dumps(scene_to_obj(scene), indent=2, sort_keys=True) + "\n"
