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
from typing import TextIO

from .bridge import Bridge
from .errors import RjsError
from .repl import ReplSession, render_tree
from .script import Environment, Interpreter, parse

DEFAULT_DRAIN_TIMEOUT_MS = 30_000


def _load_plugins(bridge: Bridge, plugins: list[str], diag: TextIO) -> bool:
    for path in plugins:
        try:
            bridge.loadlibrary(path)
        except RjsError as exc:
            diag.write(f"plugin {path}: {type(exc).__name__}: {exc}\n")
            return False
    return True


def cmd_run(
    file: str,
    plugins: list[str],
    drain_timeout_ms: int = DEFAULT_DRAIN_TIMEOUT_MS,
    out: TextIO | None = None,
    diag: TextIO | None = None,
) -> int:
    out = out if out is not None else sys.stdout
    diag = diag if diag is not None else sys.stderr
    bridge = Bridge(diag=diag)
    interp = Interpreter(bridge, out)
    scope = Environment(interp.globals)  # the program's top-level bindings
    timed_out = False
    try:
        if not _load_plugins(bridge, plugins, diag):
            return 1
        try:
            with open(file, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            diag.write(f"cannot read script {file!r}: {exc}\n")
            return 1
        try:
            program = parse(source)
            interp.run(program, scope)
        except RjsError as exc:
            diag.write(f"{type(exc).__name__}: {exc}\n")
            return 1
        if not bridge.dispatcher.drain(drain_timeout_ms):
            timed_out = True
            diag.write(
                f"drain timed out after {drain_timeout_ms} ms with "
                f"{bridge.dispatcher.pending_count()} call(s) pending\n"
            )
            return 2
        if bridge.async_faults:
            return 1
        return 0
    finally:
        if timed_out:  # a body still running must not hold the exit past the deadline
            bridge.dispatcher.shutdown(wait=False)
        else:
            bridge.shutdown()
        scope.bindings.clear()  # breaks top-level closure cycles; no callback can read it now


def cmd_repl(
    plugins: list[str],
    stdin: TextIO | None = None,
    out: TextIO | None = None,
    diag: TextIO | None = None,
) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    out = out if out is not None else sys.stdout
    diag = diag if diag is not None else sys.stderr
    bridge = Bridge(diag=diag)
    session = ReplSession(bridge, out)
    try:
        if not _load_plugins(bridge, plugins, diag):
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
    finally:
        bridge.shutdown()
        session.env.bindings.clear()  # breaks top-level closure cycles, as in cmd_run


def cmd_inspect(plugins: list[str], out: TextIO | None = None, diag: TextIO | None = None) -> int:
    out = out if out is not None else sys.stdout
    diag = diag if diag is not None else sys.stderr
    bridge = Bridge(diag=diag)
    try:
        if not _load_plugins(bridge, plugins, diag):
            return 1
        out.write(render_tree(bridge.registry))
        return 0
    finally:
        bridge.shutdown()


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
        return cmd_run(args.file, args.plugin, args.drain_timeout)
    if args.command == "repl":
        return cmd_repl(args.plugin)
    if args.command == "inspect":
        return cmd_inspect(args.plugin)
    return 2  # pragma: no cover - argparse enforces the choices


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
