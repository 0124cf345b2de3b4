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
intern the labels into the surface's integer id tables once; the parser
resolves the edge of each transport and step entry to its half-edge in
the loop that type-checks the entry, and every later section is read
into lists by half-edge, face or vertex id.
Serialization writes each section from a fixed template and each table
in it column by column from those tables, labels quoted once, to the
bytes Python's json encoder writes with sort_keys=True and indent=2,
without calling it.
It is canonical (sorted keys, least-rotation face lists, lexicographic
edge directions, anchors at the fiber's first label), so parse ->
serialize -> parse is the identity.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii

from .bundle import (
    LINK_MODE,
    DiscreteConnection,
    FlatnessStructure,
    attach_flatness,
    build_connection,
    check_flatness_surface,
)
from .complex import NO_EDGES, OrientedSurface, build_surface
from .errors import ReportCollector, WindexError
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


@lru_cache(maxsize=2)
def _power_of_ten(digits: int) -> int:
    """10**digits, made once per value: the bounds on coordinates, lifts
    and steps follow the int_max_str_digits limit, which can change at
    run time."""
    return 10**digits


def _digit_limit() -> int:
    """The int_max_str_digits limit: the most digits an integer in a scene
    file can have, since ``json.loads`` refuses a longer one."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _check_digits(values, entries, noun: str, what: str, digits: int | None = None) -> None:
    """Refuse, as rule TooManyDigits, each (element, value) of ``entries``
    whose value has more than ``digits`` digits, by default half the
    int_max_str_digits limit.  Every total and swirl a report prints is a
    sum of fewer than 10**digits lifts or steps, so it stays within the
    limit.  ``values`` are checked by one ``min`` and one ``max``;
    ``entries`` are read only to name the faults."""
    if digits is None:
        digits = _digit_limit() // 2
    bound = _power_of_ten(digits)
    if not values or -bound < min(values) and max(values) < bound:
        return
    collector = ReportCollector()
    for element, value in entries:
        if not -bound < value < bound:
            collector.add("TooManyDigits", element, f"{noun} has more than {digits} digits")
    collector.raise_if_failed(what)


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
            limit = _digit_limit()
            exponent = value.lower().partition("e")[2]
            if exponent and abs(int(exponent)) > limit + len(value):
                raise ValueError
            frac = Fraction(value)
            if max(abs(frac.numerator), frac.denominator) < _power_of_ten(limit):
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


def _check_duplicates(raw, count: int, where: str) -> None:
    """Raise the error for the first edge of the first ``count`` entries of
    ``raw``, label pairs in file order, that repeats an earlier one, if any."""
    seen = set()
    for k in range(count):
        a, b = raw[k]["edge"]
        if (a, b) in seen:
            raise SceneParseError(f"{where}[{k}]: duplicate entry for edge {(a, b)}") from None
        seen.add((a, b))


def _resolved(raw, ids, values, where: str):
    """The entries' values for a builder: (half-edge id, value) pairs when
    every edge is a directed edge of the surface, else a dict by label pair,
    so that the builder reports each stray edge.  An edge given twice is a
    SceneParseError."""
    if len(set(ids)) < len(ids):  # a repeated edge, or two strays
        _check_duplicates(raw, len(ids), where)
    if None in ids:
        return dict(zip([tuple(entry["edge"]) for entry in raw], values))
    return zip(ids, values)


def _parse_connection(obj, surface: OrientedSurface) -> DiscreteConnection:
    """Each entry is checked and its edge resolved to its half-edge (None
    when it is no directed edge) in one pass; its place in the file is
    spelled out only for the error when a check fails, unless an earlier
    entry repeats an edge."""
    _require_keys(obj, {"fiber_mode", "transports"}, {"fiber_mode", "transports"}, "connection")
    mode = _parse_fiber_mode(obj["fiber_mode"])
    raw = obj["transports"]
    where = "connection.transports"
    if type(raw) is not list:
        raise SceneParseError(f"{where}: expected a list")
    out = surface.out
    ids, specs = [], []
    try:
        for k, entry in enumerate(raw):
            # "edge" and no key outside _TRANSPORT_KEYS, counted without a keys view
            if not (type(entry) is dict and "edge" in entry
                    and len(entry) == 1 + ("anchor" in entry) + ("map" in entry)):
                raise _key_error(entry, _TRANSPORT_KEYS, {"edge"}, f"{where}[{k}]")
            pair = entry["edge"]
            if not (type(pair) is list and len(pair) == 2
                    and type(a := pair[0]) is str and type(b := pair[1]) is str):
                raise SceneParseError(f"{where}[{k}].edge: expected a pair of vertex labels")
            ids.append(out.get(a, NO_EDGES).get(b))
            if len(entry) != 2:
                raise SceneParseError(f"{where}[{k}]: give exactly one of 'anchor' or 'map'")
            if "anchor" in entry:
                spec = entry["anchor"]
                if not (type(spec) is list and len(spec) == 2
                        and type(spec[0]) is str and type(spec[1]) is str):
                    raise SceneParseError(f"{where}[{k}].anchor: expected a pair of fiber labels")
            else:
                spec = entry["map"]
                if not (type(spec) is dict and _only(str, spec) and _only(str, spec.values())):
                    raise SceneParseError(f"{where}[{k}].map: expected an object of label pairs")
            specs.append(spec)
    except SceneParseError:
        _check_duplicates(raw, len(ids), where)
        raise
    return build_connection(surface, mode, _resolved(raw, ids, specs, where))


def _parse_flatness(obj, conn: DiscreteConnection) -> FlatnessStructure:
    if not (type(obj) is dict and _only(str, obj) and _only(int, obj.values())):
        raise SceneParseError("flatness: expected an object of face-key -> integer")
    _check_digits(obj.values(), obj.items(), "lift", "invalid flatness structure")
    return attach_flatness(conn, obj)


def _parse_field(obj, conn: DiscreteConnection) -> VectorField:
    """Each step entry is checked and resolved as in ``_parse_connection``."""
    _require_keys(obj, {"at", "steps"}, {"at", "steps"}, "field")
    at = obj["at"]
    if not (type(at) is dict and _only(str, at) and _only(str, at.values())):
        raise SceneParseError("field.at: expected an object of vertex -> fiber label")
    raw = obj["steps"]
    where = "field.steps"
    if type(raw) is not list:
        raise SceneParseError(f"{where}: expected a list")
    out = conn.surface.out
    ids, counts = [], []
    try:
        for k, entry in enumerate(raw):
            if not (type(entry) is dict and len(entry) == 2
                    and "edge" in entry and "steps" in entry):
                raise _key_error(entry, _STEP_KEYS, _STEP_KEYS, f"{where}[{k}]")
            pair = entry["edge"]
            if not (type(pair) is list and len(pair) == 2
                    and type(a := pair[0]) is str and type(b := pair[1]) is str):
                raise SceneParseError(f"{where}[{k}].edge: expected a pair of vertex labels")
            ids.append(out.get(a, NO_EDGES).get(b))
            count = entry["steps"]
            if type(count) is not int:
                raise SceneParseError(f"{where}[{k}].steps: expected an integer")
            counts.append(count)
    except SceneParseError:
        _check_duplicates(raw, len(ids), where)
        raise
    edges = ("({},{})".format(*entry["edge"]) for entry in raw)
    _check_digits(counts, zip(edges, counts), "step count", "invalid vector field")
    return build_field(conn, at, _resolved(raw, ids, counts, where))


def parse_scene_text(text: str) -> SceneFile:
    """The scene in ``text``, read with the cyclic garbage collector paused.

    ``json.loads`` builds one container per JSON list and object, tens of
    thousands on a large scene, and their allocations set off collections
    that free nothing: the reader makes no reference cycles.  On every exit,
    a scene or any error, the collector is switched back on only if it was
    on at the start, so a caller's disabled collector stays disabled.  Its
    state is process-wide: a thread that switches it during a read may find
    it switched back on afterwards.
    """
    return _read([text])


def _read(holder: list) -> SceneFile:
    """``parse_scene_text`` of the one text in ``holder``, which is taken
    out as it is decoded: when no caller's frame holds the text too, it is
    freed as soon as ``json.loads`` returns, before the builders run."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        fault = None
        try:
            obj = json.loads(holder.pop())
        except ValueError as exc:  # JSONDecodeError, or an integer past int_max_str_digits
            fault = f"not valid JSON: {exc}"
        except RecursionError:
            fault = "not valid JSON: nested too deeply"
        if fault is not None:  # outside the handler: no context holds the decode error's .doc
            raise SceneParseError(fault)
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
    finally:
        if collecting:
            gc.enable()


def parse_scene(path: str) -> SceneFile:
    """Read a scene from a file path, or from stdin when path is '-'.  The
    text is handed to the reader in a list that the reader empties, and no
    frame keeps a name for it, so it is freed once decoded: a run holds no
    copy of it while the builders make the surface and its sections."""
    try:
        if path == "-":
            if sys.stdin is None:  # the process was started with stdin closed
                raise OSError("standard input is closed")
            holder = [sys.stdin.read()]
            # stdin may decode with surrogateescape, which turns every byte
            # that is not UTF-8 into a lone surrogate instead of failing
            holder[0].encode("utf-8")
        else:
            with open(path, encoding="utf-8") as handle:
                holder = [handle.read()]
    except UnicodeError:
        raise SceneParseError("not valid UTF-8") from None
    return _read(holder)


def json_block(brackets: str, indent: str, template: str, count: int, columns) -> str:
    """The list or object (``brackets`` "[]" or "{}") of ``count`` entries
    that the json encoder writes with ``sort_keys=True, indent=2``, its
    closing bracket at ``indent``.  The k-th ``%s`` of ``template``, one
    entry with its indent and sorted keys, is filled from ``columns[k]``,
    ``count`` strings, by one slice assignment: no entry is formatted."""
    if not count:
        return brackets
    text = template.split("%s")
    width = 2 * len(text) - 2  # per entry: each field and the text before it
    # the first field's text ends the entry before, and the last's the block
    parts = [f"{text[-1]},\n{text[0]}", None] * (width // 2)
    parts[2::2] = text[1:-1]
    parts *= count
    parts[0] = f"{brackets[0]}\n{text[0]}"
    for k, column in enumerate(columns):
        parts[2 * k + 1::width] = column
    parts.append(f"{text[-1]}\n{indent}{brackets[1]}")
    return "".join(parts)


class JsonText(str):
    """Text that is already JSON at the depth where it goes: ``json_text``
    writes it as it is."""


def json_text(value, indent: str = "") -> str:
    """``value`` as the json encoder writes it with ``sort_keys=True,
    indent=2`` and its closing bracket at ``indent``, for the types windex
    writes: None, bool, int, str, lists and objects with str keys, and a
    JsonText as it is.  Types are matched exactly, so a bool is never an
    int; any other type, a float or a Fraction, is a TypeError."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is JsonText:
        return value
    if kind is int:
        return str(value)
    inner = indent + "  "
    if kind is dict:
        keys = sorted(value)
        return json_block("{}", indent, inner + "%s: %s", len(keys), [
            map(encode_basestring_ascii, keys), [json_text(value[k], inner) for k in keys]])
    if kind is list:
        return json_block("[]", indent, inner + "%s", len(value),
                          [[json_text(v, inner) for v in value]])
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"json_text cannot write a {kind.__name__}")


# one entry of each table of a scene file, at its depth in the file
_FACE = "      [\n        %s,\n        %s,\n        %s\n      ]"
_TRANSPORT = ("      {\n        \"anchor\": [\n          %s,\n          %s\n        ],\n"
              "        \"edge\": [\n          %s,\n          %s\n        ]\n      }")
_STEP = ("      {\n        \"edge\": [\n          %s,\n          %s\n        ],\n"
         "        \"steps\": %s\n      }")
# each section of a scene file, in sorted order
_CONNECTION = '  "connection": {\n    "fiber_mode": %s,\n    "transports": %s\n  }'
_FIELD = '  "field": {\n    "at": %s,\n    "steps": %s\n  }'
_SURFACE = '  "surface": {\n    "faces": %s,%s\n    "vertices": %s\n  }'


def _fiber_labels(ring, first, conn: DiscreteConnection, vertices, positions) -> list[str]:
    """The quoted label of each position in the fiber of the vertex beside
    it: k * arc is link label k of v, ``ring[first[v] + k]``, and the j-th
    after it x~j, quoted x with ~j before its closing quote (neither needs
    escaping)."""
    n = conn.sizes
    if conn.refined is None:
        return [ring[first[v] + p % n[v]] for v, p in zip(vertices, positions)]
    arcs = conn.arcs
    return [ring[first[v] + k] if j == 0 else f'{ring[first[v] + k][:-1]}~{j}"'
            for v, p in zip(vertices, positions) for k, j in [divmod(p % n[v], arcs[v])]]


def serialize_scene(scene: SceneFile) -> str:
    """The scene as the json encoder writes it with ``sort_keys=True,
    indent=2``, plus a newline: each section from its template, and each
    table in it by ``json_block`` from its entry template, with labels
    quoted once and fiber labels read off one list of the quoted link
    labels of every vertex in turn, vertex v's from its cumulative degree
    ``first[v]`` on.  A scene whose sections disagree is a WindexError: its
    connection and flatness must lie on its surface and its field on its
    connection, the same object or an equal one, and a flatness or field
    needs a connection, as in a file.  A refined fiber size, lifts and step
    counts that the reader refuses are refused here as TooManyDigits."""
    surface, conn, flatness, field = scene.surface, scene.connection, scene.flatness, scene.field
    if conn is None and (flatness is not None or field is not None):
        raise WindexError("a flatness or field section needs a connection")
    if conn is not None and conn.surface is not surface and conn.surface != surface:
        raise WindexError("the connection lies on another surface than the scene")
    if flatness is not None:
        check_flatness_surface(conn, flatness)
        _check_digits(flatness.lifts, zip(surface.keys, flatness.lifts),
                      "lift", "invalid flatness structure")
    if field is not None and field.conn is not conn and field.conn != conn:
        raise WindexError("the field lies on another connection than the scene's")
    if conn is not None and conn.refined is not None:
        _check_digits([conn.refined], [("fiber_mode", conn.refined)],
                      "fiber size", "invalid fiber mode", _digit_limit())
    labels, tails, heads, edges = surface.vertices, surface.tails, surface.heads, surface.edge_half
    quote, V, E, F = encode_basestring_ascii, len(labels), len(edges), len(surface.keys)
    quoted = list(map(quote, labels))
    sections = []
    if conn is not None:
        starts, ends = list(map(tails.__getitem__, edges)), list(map(heads.__getitem__, edges))
        edge_ends = list(map(quoted.__getitem__, starts)), list(map(quoted.__getitem__, ends))
        first = list(accumulate(surface.degrees, initial=0))
        ring = [""] * len(tails)
        for t, h, k in zip(tails, heads, surface.ring_pos):
            ring[first[t] + k] = quoted[h]
        anchors = _fiber_labels(ring, first, conn, ends, map(conn.offsets.__getitem__, edges))
        sections.append(_CONNECTION % (
            '"link"' if conn.refined is None else '{\n      "refined": %d\n    }' % conn.refined,
            json_block("[]", "    ", _TRANSPORT, E,
                       [[ring[first[t]] for t in starts], anchors, *edge_ends])))
    if field is not None:
        steps = field.steps
        _check_digits(steps, ((f"({labels[tails[h]]},{labels[heads[h]]})", steps[h])
                              for h in edges), "step count", "invalid vector field")
        sections.append(_FIELD % (
            json_block("{}", "    ", "      %s: %s", V,
                       [quoted, _fiber_labels(ring, first, conn, range(V), field.at)]),
            json_block("[]", "    ", _STEP, E,
                       [*edge_ends, map(str, map(steps.__getitem__, edges))])))
    if flatness is not None:
        sections.append('  "flatness": ' + json_block(
            "{}", "  ", "    %s: %s", F, [map(quote, surface.keys), map(str, flatness.lifts)]))
    positions = surface.positions
    sections.append(_SURFACE % (
        json_block("[]", "    ", _FACE, F, [map(quoted.__getitem__, tails[k::3]) for k in range(3)]),
        "" if positions is None else '\n    "positions": %s,' % json_block(
            "{}", "    ", "      %s: %s", len(positions), [map(quote, sorted(positions)), [
                json_block("[]", "      ", '        "%s"', len(c), [map(str, map(Fraction, c))])
                for _, c in sorted(positions.items())]]),
        json_block("[]", "    ", "      %s", V, [quoted])))
    return "{\n%s\n}\n" % ",\n".join(sections)
