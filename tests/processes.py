#!/usr/bin/env python3
"""Every golden key, fixture and rejected scene run as a windex process,
with real pipes and closed standard streams.  ``plan()`` lists the runs
and what each must give, and starts none; ``main()`` makes them, on a
strict UTF-8 stdout, and names each that goes wrong.  A stderr that is
not checked whole must hold no traceback, error at exit or read error.

    python tests/processes.py
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

GOLDEN = Path(__file__).resolve().parent / "golden"
WINDEX = [sys.executable, "-m", "windex.cli"]
BROKEN_PIPE = f"cannot write output: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"
CLOSED_STDIN = "cannot read scene: standard input is closed\n"
NOISE = ("Traceback", "Exception ignored", "cannot read scene")
# the --json reports that are written in three pieces around their per-face rows
ROW_REPORTS = ("index --json", "curvature --json")
# this environment with ``src`` on PYTHONPATH, and strict UTF-8 stdio
ENV = dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=os.pathsep.join(
    filter(None, [str(GOLDEN.parents[1] / "src"), os.environ.get("PYTHONPATH")])))


def load(name: str) -> dict:
    """``tests/golden/NAME.json``: what each golden key gives."""
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


def argv(key: str, folder: str = "scenes") -> list[str]:
    """windex's arguments for a golden key: a ``fixture NAME`` key's own,
    else those after the scene name, then that scene's file in ``folder``."""
    name, *args = key.split(" ")
    return [name, *args] if name == "fixture" else [*args, str(GOLDEN / folder / f"{name}.json")]


def windex(args, stdin=None, streams: str = "", env=None) -> subprocess.CompletedProcess:
    """``windex ARGS`` as a process, stdout and stderr captured.  ``stdin`` is
    bytes written to a pipe, or a second windex's arguments: its stdout is
    piped in, and its exit code counts when the first's is 0.  ``streams``
    "<&-", ">&-" or "2>&-" closes that stream; "|x" makes stdout a pipe
    whose reader is closed first."""
    command, env = [*WINDEX, *args], env or ENV
    if streams.endswith("&-"):
        command = ["sh", "-c", f'exec "$@" {streams}', "sh", *command]
    feeder, stdout, given = None, subprocess.PIPE, {"stdin": subprocess.DEVNULL}
    if isinstance(stdin, bytes):
        given = {"input": stdin}
    elif stdin is not None:
        feeder = subprocess.Popen([*WINDEX, *stdin], stdout=subprocess.PIPE, env=env)
        given = {"stdin": feeder.stdout}
    if streams == "|x":
        read, stdout = os.pipe()
        os.close(read)
    try:
        proc = subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, env=env,
                              timeout=60, **given)
    finally:
        if stdout != subprocess.PIPE:
            os.close(stdout)
    if feeder is not None:
        feeder.stdout.close()
        proc.returncode = proc.returncode or feeder.wait(timeout=60)
    return proc


class Run(NamedTuple):
    key: str  # the golden key or scene file ``want`` comes from, or "- COMMAND"
    args: list[str]
    want: dict  # the exit "code", and the "stdout" and "stderr" where checked
    stdin: bytes | list[str] | None = None  # as ``windex`` takes it
    streams: str = ""  # as ``windex`` takes it


def plan() -> list[Run]:
    outputs, rejected = load("outputs"), load("rejected")
    bare = [key.split(" ") for key in sorted(outputs) if key.count(" ") == 1]  # no flags
    runs = []
    for name, what in bare:  # each fixture prints its scene, and windex reads it
        if name == "fixture":
            scene = f"scenes/fixture-{what}.json"
            text = (GOLDEN / scene).read_text(encoding="utf-8")
            runs += [Run(scene, [name, what], {"code": 0, "stdout": text}),
                     Run(scene, ["validate", "-"], {"code": 0}, [name, what])]
    runs.append(Run("scenes/fixture-octahedron.json", ["check", "-"], {"code": 0},
                    ["fixture", "octahedron"]))
    validated = [key for key in sorted(rejected) if key.endswith(" validate")]
    runs += [Run(key, ["validate", "-"], rejected[key],
                 Path(argv(key, "rejected")[-1]).read_bytes()) for key in validated]
    runs += [Run(key, argv(key), {"code": want["code"], "stdout": want["stdout"]}
                 | ({"stderr": ""} if want["code"] == 0 else {}))
             for key, want in sorted(outputs.items())]
    # a write fails unless there is none: each flagless key, and each row report
    piped = [" ".join(pair) for pair in bare] + [
        key for key in sorted(outputs) if key.partition(" ")[2] in ROW_REPORTS]
    for key in piped:
        want = outputs[key]
        runs.append(Run(key, argv(key), {"code": 1, "stderr": BROKEN_PIPE} if want["stdout"]
                        else {"code": want["code"]}, streams="|x"))
    # stdin is closed, so no scene reaches the process: once per command
    runs += [Run(f"- {what}", [what, "-"], {"code": 1, "stderr": CLOSED_STDIN}, streams="<&-")
             for what in sorted({what for name, what in bare if name != "fixture"})]
    runs += [Run(key, argv(key, "rejected"), {"code": rejected[key]["code"]}, streams="2>&-")
             for key in validated]
    return runs + [Run(key, argv(key), {"code": outputs[key]["code"]}, streams="2>&-")
                   for key in sorted(outputs) if key.split(" ")[1] == "check"]


def main() -> int:
    runs, bad = plan(), 0
    for run in runs:
        proc = windex(run.args, run.stdin, run.streams)
        out, err = (text.decode("utf-8", "surrogateescape")
                    for text in (proc.stdout or b"", proc.stderr))
        got = {"code": proc.returncode, "stdout": out, "stderr": err}
        wrong = {field: got[field] for field, want in run.want.items() if got[field] != want}
        if "stderr" not in run.want and any(word in err for word in NOISE):
            wrong["stderr"] = err
        if wrong:
            bad += 1
            print(f"{run.key}: windex {' '.join(run.args)} {run.streams}: "
                  f"got {wrong!r}, want {run.want!r}")
    print(f"{len(runs) - bad} of {len(runs)} runs as documented")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
