"""Command-line interface.

Subcommands operate on scene files (path argument, '-' or omitted reads
stdin) and print human-readable tables, or machine-readable JSON with
``--json``.  Exit codes: 0 success, 1 parse error, 2 validation error,
3 theorem or assertion failure.

    windex fixture octahedron | windex check
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import SIGN_CONVENTIONS
from .bundle import (
    canonical_flatness,
    face_reports,
    flat_connection,
    net_holonomy,
    tangent_connection,
    total_flatness_winding,
)
from .errors import (
    NonIntegralIndex,
    NonIntegralTotal,
    NotIncident,
    WindexError,
)
from .field import totals
from .fixtures import (
    boundary_delta3,
    csaszar_torus,
    icosahedron,
    octahedron_connection,
    octahedron_spin_field,
)
from .scene import (
    SceneFile,
    SceneParseError,
    fill_nulls,
    json_block,
    parse_scene,
    serialize_scene,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_ASSERTION = 3


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _fail(code: int, message: str) -> int:
    sys.stderr.write(message if message.endswith("\n") else message + "\n")
    return code


def _parse_basepoints(pairs) -> dict[str, str]:
    """FACE=VERTEX pairs; the library checks each key and vertex."""
    overrides = {}
    for pair in pairs or ():
        key, sep, vertex = pair.rpartition("=")
        if not sep:
            raise NotIncident(f"--basepoint wants FACE=VERTEX, got {pair!r}")
        overrides[key] = vertex
    return overrides


def _resolve_flatness(conn, scene: SceneFile, args):
    if args.canonical_flatness or scene.flatness is None:
        return canonical_flatness(conn)
    return scene.flatness


def _need(scene: SceneFile, what: str):
    value = getattr(scene, what)
    if value is None:
        raise NotIncident(f"this subcommand needs a {what} section in the scene")
    return value


# json.dumps's text of each field type of a report row, a str once quoted
_JSON_FORMAT = {str: "%s", int: "%s", Fraction: '"%s"'}


def _json_rows(rows) -> str:
    """Named tuples of one type (each field of one type throughout) as the
    list ``json.dumps(..., sort_keys=True, indent=2)`` writes one level
    down, from one template with the fields in sorted order; strs are
    quoted by the stdlib encoder's own function."""
    if not rows:
        return "[]"
    first, names = rows[0], rows[0]._fields
    order = sorted(range(len(names)), key=names.__getitem__)
    columns = list(zip(*rows))
    template = "    {\n" + ",\n".join(
        f'      "{names[i]}": {_JSON_FORMAT[type(first[i])]}' for i in order) + "\n    }"
    values = zip(*[map(encode_basestring_ascii, columns[i]) if type(first[i]) is str
                   else columns[i] for i in order])
    return json_block("[]", "  ", template, values)


def _report(args, payload: dict, lines, rows=None) -> None:
    """Print a report stamped with the sign conventions: ``payload``, with
    the per-face ``rows`` in its "faces": None slot, as JSON under --json,
    else the text ``lines``."""
    if args.json:
        text = json.dumps({"conventions": SIGN_CONVENTIONS, **payload}, sort_keys=True, indent=2)
        _emit(text if rows is None else fill_nulls(text, [('\n  "faces"', _json_rows(rows))]))
    else:
        # a label stdout cannot encode (a lone surrogate) prints as its
        # escape, the spelling the JSON forms use
        encoding = sys.stdout.encoding or "utf-8"
        _emit(f"sign conventions {SIGN_CONVENTIONS}")
        for line in lines:
            _emit(line.encode(encoding, "backslashreplace").decode(encoding))


def _cmd_validate(scene: SceneFile, args) -> int:
    # a scene that parsed has already passed every builder's validation;
    # an invalid one exits 2 with the full report on stderr before this runs
    sections = {"surface": "ok"}
    for part in ("connection", "flatness", "field"):
        if getattr(scene, part) is not None:
            sections[part] = "ok"
    _report(args, {"reports": sections, "ok": True},
            (f"{name}: {text}" for name, text in sections.items()))
    return EXIT_OK


def _cmd_links(scene: SceneFile, args) -> int:
    links = dict(zip(scene.surface.vertices, scene.surface.link_labels))
    _report(args, {"links": links}, (f"{v}: {' '.join(cycle)}" for v, cycle in links.items()))
    return EXIT_OK


def _cmd_curvature(scene: SceneFile, args) -> int:
    conn = _need(scene, "connection")
    flatness = _resolve_flatness(conn, scene, args)
    overrides = _parse_basepoints(args.basepoint)
    rows = face_reports(conn, flatness, overrides)
    net = net_holonomy(conn)
    total = total_flatness_winding(conn, flatness)
    payload = {"faces": None, "net_holonomy": str(net), "total_flatness_winding": total}
    _report(args, payload, chain(
        [f"{'face':<12}{'base':<6}{'n':<4}{'hol':<5}{'lift':<6}{'curvature':<11}lift turns"],
        (f"{r.face:<12}{r.basepoint:<6}{r.size:<4}{r.holonomy_steps:<5}"
         f"{r.lift:<6}{str(r.curvature):<11}{r.lift_turns}" for r in rows),
        [f"net holonomy: {net}", f"total flatness winding: {total}"],
    ), rows)
    return EXIT_OK


def _index_payload(scene: SceneFile, args):
    conn = _need(scene, "connection")
    field = _need(scene, "field")
    flatness = _resolve_flatness(conn, scene, args)
    overrides = _parse_basepoints(getattr(args, "basepoint", None))
    return totals(field, flatness, overrides)


def _cmd_index(scene: SceneFile, args) -> int:
    report = _index_payload(scene, args)
    payload = {
        "faces": None,
        "total_swirl": str(report.total_swirl),
        "total_index": report.total_index,
        "total_flatness_winding": report.total_flatness_winding,
        "theorem_holds": report.theorem_holds,
    }
    _report(args, payload, chain(
        [f"{'face':<12}{'base':<6}{'n':<4}{'hol':<5}{'lift':<6}{'swirl':<7}index"],
        (f"{r.face:<12}{r.basepoint:<6}{r.size:<4}{r.holonomy_steps:<5}"
         f"{r.lift:<6}{r.swirl:<7}{r.index}" for r in report.rows),
        [f"total swirl: {report.total_swirl}",
         f"total index: {report.total_index}",
         f"total flatness winding: {report.total_flatness_winding}",
         f"theorem holds: {report.theorem_holds}"],
    ), report.rows)
    return EXIT_OK


def _cmd_check(scene: SceneFile, args) -> int:
    report = _index_payload(scene, args)
    verdict = "PASS" if report.theorem_holds else "FAIL"
    _report(args, {
        "total_index": report.total_index,
        "total_flatness_winding": report.total_flatness_winding,
        "total_swirl": str(report.total_swirl),
        "verdict": verdict,
    }, [f"total index {report.total_index} "
        f"{'==' if report.theorem_holds else '!='} "
        f"total flatness winding {report.total_flatness_winding}: {verdict}"])
    return EXIT_OK if report.theorem_holds else EXIT_ASSERTION


def _cmd_fixture(args) -> int:
    name = args.name
    if name == "octahedron":
        conn = octahedron_connection()
        field = octahedron_spin_field(conn)
        scene = SceneFile(conn.surface, conn, None, field)
    elif name == "icosahedron":
        conn = tangent_connection(icosahedron(), 10)
        scene = SceneFile(conn.surface, conn)
    elif name == "tetrahedron":
        conn = tangent_connection(boundary_delta3(), 6)
        scene = SceneFile(conn.surface, conn)
    elif name == "torus":
        conn = flat_connection(csaszar_torus(), 6)
        scene = SceneFile(conn.surface, conn)
    else:  # argparse choices make this unreachable
        return _fail(EXIT_PARSE, f"unknown fixture {name!r}")
    _emit(serialize_scene(scene))
    return EXIT_OK


def _cmd_export(scene: SceneFile, args) -> int:
    surface = scene.surface
    if surface.positions is None:
        raise NotIncident("export needs vertex positions in the scene")
    missing = [v for v in surface.vertices if v not in surface.positions]
    if missing:
        raise NotIncident(f"export needs a position for every vertex, missing {missing}")
    tails = surface.tails
    lines = ["OFF", f"{len(surface.vertices)} {len(surface.keys)} {len(surface.edge_half)}"]
    for v in surface.vertices:
        coords = " ".join(_off_number(v, c) for c in surface.positions[v])
        lines.append(coords)
    for h in range(0, len(tails), 3):
        lines.append(f"3 {tails[h]} {tails[h + 1]} {tails[h + 2]}")
    _emit("\n".join(lines))
    return EXIT_OK


def _off_number(v: str, value) -> str:
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    try:
        return repr(float(frac))
    except OverflowError:
        raise NotIncident(f"export cannot write the position of {v!r}: "
                          "a coordinate is out of float range") from None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.  Parsing
    leaves it unchanged (``--basepoint`` appends to a fresh list), so
    ``main`` may be called any number of times in one process."""
    parser = argparse.ArgumentParser(
        prog="windex",
        description="exact curvature and vector-field index calculations on combinatorial surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scene_command(name, help_text, basepoints=False, flatness=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scene", nargs="?", default="-", help="scene file ('-' = stdin)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if basepoints:
            p.add_argument("--basepoint", action="append", metavar="FACE=VERTEX",
                           help="override a face basepoint (repeatable)")
        if flatness:
            p.add_argument("--canonical-flatness", action="store_true",
                           help="use least-nonnegative lifts, ignoring the scene's")
        return p

    scene_command("validate", "run all validation reports")
    scene_command("links", "print the link polygon of every vertex")
    scene_command("curvature", "per-face holonomy and curvature, net holonomy, total flatness winding",
                  basepoints=True, flatness=True)
    scene_command("index", "per-face swirl and index plus totals", basepoints=True, flatness=True)
    scene_command("check", "verify total index == total flatness winding", flatness=True)

    fixture = sub.add_parser("fixture", help="emit a ready-made scene")
    fixture.add_argument("name", choices=["octahedron", "icosahedron", "tetrahedron", "torus"])

    export = sub.add_parser("export", help="write geometry (needs positions)")
    export.add_argument("scene", nargs="?", default="-", help="scene file ('-' = stdin)")
    export.add_argument("--format", choices=["off"], default="off")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fixture":
            return _cmd_fixture(args)
        scene = parse_scene(args.scene)
        handler = {
            "validate": _cmd_validate,
            "links": _cmd_links,
            "curvature": _cmd_curvature,
            "index": _cmd_index,
            "check": _cmd_check,
            "export": _cmd_export,
        }[args.command]
        return handler(scene, args)
    except SceneParseError as exc:
        return _fail(EXIT_PARSE, f"parse error: {exc}")
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot read scene: {exc}")
    except (NonIntegralTotal, NonIntegralIndex) as exc:
        return _fail(EXIT_ASSERTION, f"assertion failure: {exc}")
    except WindexError as exc:
        return _fail(EXIT_VALIDATION, f"validation error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
