"""Command-line front door.

    rjs run <file.rjs> [--plugin <path>]... [--drain-timeout <ms>]
    rjs repl [--plugin <path>]...
    rjs inspect --tree [--plugin <path>]...

Plugins load strictly in command-line order before anything else runs.
Batch mode exits 0 on success, 1 on a script or host fault (rendered to
stderr), 2 when pending asynchronous calls fail to drain in time.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from typing import TextIO

from .bridge import Bridge
from .errors import RjsError, render_fault
from .repl import ReplSession, Session, render_tree
from .script import parse

DEFAULT_DRAIN_TIMEOUT_MS = 30_000


def _load_plugins(bridge: Bridge, plugins: list[str], diag: TextIO) -> bool:
    for path in plugins:
        try:
            bridge.loadlibrary(path)
        except RjsError as exc:
            diag.write(f"plugin {path}: {render_fault(exc)}\n")
            return False
    return True


def cmd_run(file: str, plugins: list[str], drain_timeout_ms: int = DEFAULT_DRAIN_TIMEOUT_MS,
            *, out: TextIO, diag: TextIO) -> int:
    with closing(Session(Bridge(diag=diag), out)) as session:
        bridge = session.bridge
        if not _load_plugins(bridge, plugins, diag):
            return 1
        try:
            with open(file, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            diag.write(f"cannot read script {file!r}: {exc}\n")
            return 1
        try:
            session.interp.run(parse(source), session.env)
        except RjsError as exc:
            diag.write(f"{render_fault(exc)}\n")
            return 1
        if not bridge.dispatcher.drain(drain_timeout_ms):
            diag.write(f"drain timed out after {drain_timeout_ms} ms with "
                       f"{bridge.dispatcher.pending_count()} call(s) pending\n")
            session.close(wait=False)  # a body still running must not hold the exit past the deadline
            return 2
        return 1 if bridge.async_faults else 0


def cmd_repl(plugins: list[str], *, stdin: TextIO, out: TextIO, diag: TextIO) -> int:
    with closing(ReplSession(Bridge(diag=diag), out)) as session:
        if not _load_plugins(session.bridge, plugins, diag):
            return 1
        while session.active:
            out.write("rjs> ")
            out.flush()
            line = stdin.readline()
            if line == "":  # end of input
                out.write("\n")
                break
            session.step(line)
        return 0


def cmd_inspect(plugins: list[str], *, out: TextIO, diag: TextIO) -> int:
    with closing(Session(Bridge(diag=diag), out)) as session:
        if not _load_plugins(session.bridge, plugins, diag):
            return 1
        out.write(render_tree(session.bridge.registry))
        return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rjs",
        description="Run scripts against an introspectable host object system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a .rjs script in batch mode")
    run.add_argument("file")
    run.add_argument("--plugin", action="append", default=[], metavar="PATH")
    run.add_argument(
        "--drain-timeout",
        type=int,
        default=DEFAULT_DRAIN_TIMEOUT_MS,
        metavar="MS",
        help="how long to wait for pending asynchronous calls (default 30000)",
    )

    repl = sub.add_parser("repl", help="interactive session")
    repl.add_argument("--plugin", action="append", default=[], metavar="PATH")

    inspect = sub.add_parser("inspect", help="print the exposed namespace tree")
    inspect.add_argument("--tree", action="store_true", required=True)
    inspect.add_argument("--plugin", action="append", default=[], metavar="PATH")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.file, args.plugin, args.drain_timeout, out=sys.stdout, diag=sys.stderr)
    if args.command == "repl":
        return cmd_repl(args.plugin, stdin=sys.stdin, out=sys.stdout, diag=sys.stderr)
    if args.command == "inspect":
        return cmd_inspect(args.plugin, out=sys.stdout, diag=sys.stderr)
    return 2  # pragma: no cover - argparse enforces the choices


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
