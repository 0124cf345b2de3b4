"""Command-line interface.

Subcommands operate on scene files (path argument, '-' or omitted reads
stdin) and print human-readable tables, or machine-readable JSON with
``--json``.  Exit codes: 0 success, 1 parse error, unreadable scene or
unwritable output, 2 validation error, 3 theorem or assertion failure.

    windex fixture octahedron | windex check
"""

from __future__ import annotations

import argparse
import sys
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
from .field import IndexRow, totals
from .fixtures import (
    boundary_delta3,
    csaszar_torus,
    icosahedron,
    octahedron_connection,
    octahedron_spin_field,
)
from .scene import (
    JsonText,
    SceneFile,
    SceneParseError,
    json_block,
    json_text,
    parse_scene,
    serialize_scene,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_ASSERTION = 3


def _emit(*pieces: str, escape: bool = False) -> None:
    """Write ``pieces`` to stdout, one write each, the last ending in a
    newline; with ``escape``, a character stdout's encoding cannot hold (a
    lone surrogate in a label) as its backslash escape, the spelling the
    JSON forms use."""
    stdout = sys.stdout
    if stdout is None:  # the process was started with stdout closed
        raise OSError("standard output is closed")
    if escape:
        encoding = stdout.encoding or "utf-8"
        pieces = [piece.encode(encoding, "backslashreplace").decode(encoding)
                  for piece in pieces]
    *first, last = pieces
    for piece in first:
        stdout.write(piece)
    stdout.write(last if last.endswith("\n") else last + "\n")


def _fail(code: int, message: str) -> int:
    if sys.stderr is not None:  # None: the process was started with stderr closed
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


def _json_rows(names, columns) -> str:
    """Per-face rows, given as ``columns`` (one per field of ``names``,
    each of one type throughout), as the list the json encoder writes with
    ``sort_keys=True, indent=2`` one level down, from one template with the
    fields in sorted order: a str column quoted by the stdlib encoder's
    own function, any other written by ``str``.  Empty columns are no rows."""
    if not columns[0]:
        return "[]"
    order = sorted(range(len(names)), key=names.__getitem__)
    template = "    {\n" + ",\n".join(f'      "{names[i]}": %s' for i in order) + "\n    }"
    return json_block("[]", "  ", template, len(columns[0]), [
        map(encode_basestring_ascii if type(columns[i][0]) is str else str, columns[i])
        for i in order])


# the five leading fields of every per-face report, then curvature's own
_CURVATURE_FIELDS = (*IndexRow._fields[:5], "curvature", "lift_turns")


def _text_rows(heads, width: int, columns):
    """The header, the five shared names then ``heads``, and a line per
    face of ``columns``, the five shared padded to 12, 6, 4, 5 and 6
    characters and the sixth to ``width``."""
    template = f"{{:<12}}{{:<6}}{{:<4}}{{:<5}}{{:<6}}{{:<{width}}}{{}}"
    header = template.format("face", "base", "n", "hol", "lift", *heads)
    return chain([header], map(template.format, *columns))


# where a --json report's per-face rows go: json_text writes a JsonText as
# it is, and escapes every control character of any other string it writes
_ROWS = JsonText("\0")


def _report(args, payload: dict, lines, faces=None) -> None:
    """Print a report stamped with the sign conventions: ``payload``, with
    the per-face rows ``faces``, (field names, columns), under its "faces"
    key, as JSON under --json, else the text ``lines``.  A JSON report with
    rows is written in three pieces, the text before the rows, the rows and
    the rest, so no string holds the rows twice; any other in one write."""
    if not args.json:
        _emit("\n".join(chain([f"sign conventions {SIGN_CONVENTIONS}"], lines)), escape=True)
    elif faces is None:
        _emit(json_text({"conventions": SIGN_CONVENTIONS, **payload}))
    else:
        head, _, tail = json_text({"conventions": SIGN_CONVENTIONS, **payload,
                                   "faces": _ROWS}).partition(_ROWS)
        _emit(head, _json_rows(*faces), tail)


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
    columns = face_reports(conn, flatness, overrides)
    net = net_holonomy(conn)
    total = total_flatness_winding(conn, flatness)
    payload = {"net_holonomy": str(net), "total_flatness_winding": total}
    _report(args, payload, chain(
        _text_rows(("curvature", "lift turns"), 11, columns),
        [f"net holonomy: {net}", f"total flatness winding: {total}"],
    ), (_CURVATURE_FIELDS, columns))
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
        "total_swirl": str(report.total_swirl),
        "total_index": report.total_index,
        "total_flatness_winding": report.total_flatness_winding,
        "theorem_holds": report.theorem_holds,
    }
    _report(args, payload, chain(
        _text_rows(("swirl", "index"), 7, report.columns),
        [f"total swirl: {report.total_swirl}",
         f"total index: {report.total_index}",
         f"total flatness winding: {report.total_flatness_winding}",
         f"theorem holds: {report.theorem_holds}"],
    ), (IndexRow._fields, report.columns))
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


# each fixture's connection and the field on it, if any, in --help order
_FIXTURES = {
    "octahedron": (octahedron_connection, octahedron_spin_field),
    "icosahedron": (lambda: tangent_connection(icosahedron(), 10), None),
    "tetrahedron": (lambda: tangent_connection(boundary_delta3(), 6), None),
    "torus": (lambda: flat_connection(csaszar_torus(), 6), None),
}


def _cmd_fixture(args) -> int:
    connection, field = _FIXTURES[args.name]
    conn = connection()
    _emit(serialize_scene(SceneFile(conn.surface, conn, None, field and field(conn))))
    return EXIT_OK


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
    fixture.add_argument("name", choices=list(_FIXTURES))

    return parser


def _discard_output() -> None:
    """Point stdout's file descriptor at the null device, so that the text
    still buffered for a stream that failed is dropped at exit instead of
    failing again there.  A stdout that is missing or is no file (an
    in-process capture) is left as it is."""
    import os  # imported on this error path only

    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fixture":
            code = _cmd_fixture(args)
        else:
            try:
                scene = parse_scene(args.scene)
            except OSError as exc:
                return _fail(EXIT_PARSE, f"cannot read scene: {exc}")
            handler = {
                "validate": _cmd_validate,
                "links": _cmd_links,
                "curvature": _cmd_curvature,
                "index": _cmd_index,
                "check": _cmd_check,
            }[args.command]
            code = handler(scene, args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a write that would fail at exit fails here
        return code
    except OSError as exc:  # after the read, the only I/O is the output
        _discard_output()
        return _fail(EXIT_PARSE, f"cannot write output: {exc}")
    except SceneParseError as exc:
        return _fail(EXIT_PARSE, f"parse error: {exc}")
    except (NonIntegralTotal, NonIntegralIndex) as exc:
        return _fail(EXIT_ASSERTION, f"assertion failure: {exc}")
    except WindexError as exc:
        return _fail(EXIT_VALIDATION, f"validation error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
