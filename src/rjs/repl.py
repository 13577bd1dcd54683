"""Sessions, the one way every front end opens and ends an interpreter over a
bridge; the REPL's line stepping; the namespace-tree renderer."""

from __future__ import annotations

import io
from typing import TextIO

from .bridge import Bridge, weak_method
from .dispatcher import report_fault
from .errors import RjsError, render_fault
from .model import Registry, kind_str, sig_str
from .script import CLOSED, Environment, Interpreter, SExprStmt, parse, render_value, tokenize

META_COMMANDS = (".pump", ".tree", ".quit")


def render_tree(registry: Registry) -> str:
    """Deterministic rendering of everything the registry exposes.

    Categories appear in enumerate() order (namespaces, types, functions,
    globals), each sorted; enum tables follow at the end. Used for golden
    comparisons, so the format is stable.
    """
    lines: list[str] = []

    def emit(node, indent: int) -> None:
        pad = "  " * indent
        for name in sorted(node.namespaces):
            lines.append(f"{pad}{name}/")
            emit(node.namespaces[name], indent + 1)
        for name in sorted(node.types):
            desc = node.types[name]
            suffix = f" : {', '.join(desc.bases)}" if desc.bases else ""
            lines.append(f"{pad}{name}{suffix}")
            for decl in desc.fields:
                lines.append(f"{pad}  .{decl.name}: {kind_str(decl.kind)}")
            for ctor in desc.ctors:
                params = ", ".join(kind_str(k) for k in ctor.params)
                lines.append(f"{pad}  {name}({params})")
            methods = registry.methods.get(desc.qualified_name, {})
            for method_name in sorted(methods):
                for sig in methods[method_name].signatures:
                    lines.append(f"{pad}  {sig_str(method_name, sig)}")
        for name in sorted(node.functions):
            for sig in node.functions[name].signatures:
                # free functions carry no receiver; the static marker is implied
                lines.append(f"{pad}{sig_str(name, sig).replace(' [static]', '')}")
        for name in sorted(node.globals):
            decl = node.globals[name]
            lines.append(f"{pad}{name}: {kind_str(decl.kind)}")

    emit(registry.root, 0)
    if registry.enums:
        lines.append("enums:")
        for enum_name in sorted(registry.enums):
            table = registry.enums[enum_name]
            rendered = ", ".join(f"{k}={table[k]}" for k in sorted(table))
            lines.append(f"  {enum_name} {{ {rendered} }}")
    if not lines:
        return "(empty)\n"
    return "\n".join(lines) + "\n"


def _terminated(line: str) -> str:
    """`line` with the `;` the grammar wants at its end; behind a trailing
    comment, which would swallow it, the `;` goes on a line of its own."""
    if line.endswith(";"):
        return line
    kinds = tokenize(line + ";").kinds
    return line + ";" if len(kinds) == 1 or kinds[-2] == ";" else line + "\n;"


class Session:
    """A bridge, an interpreter over it and its top-level scope, ended together by `close`.

    A closure that outlives `close` in a scope cycle keeps no bridge alive;
    calling it into the bridge raises EngineStopped."""

    def __init__(self, bridge: Bridge, out: TextIO):
        self.bridge = bridge
        self.interp = Interpreter(bridge, out)
        self.env = Environment(self.interp.globals)

    def close(self, wait: bool = True) -> None:
        """Shut the engine down (see `Dispatcher.shutdown` for `wait`), clear the
        top-level bindings and cut the interpreter's bridge; a second call does nothing."""
        if self.interp.bridge is CLOSED:
            return
        if wait:
            self.bridge.shutdown()
        else:
            self.bridge.dispatcher.shutdown(wait=False)
        self.env.bindings.clear()
        self.interp.bridge = CLOSED


class ReplSession(Session):
    """A session fed one line per `step`."""

    def __init__(self, bridge: Bridge, out: TextIO):
        super().__init__(bridge, out)
        self.active = True
        # async faults print into the session, not the process diagnostic stream
        bridge.error_sink = weak_method(self._async_error)

    def _async_error(self, call_id: int, exc: Exception) -> None:
        report_fault(self.interp.out, call_id, exc)

    def step(self, line: str) -> str:
        """Evaluate one line and pump pending completions once.

        Returns what the step wrote (it is also written to the session
        stream). Errors render into the output; they never end the session.
        """
        buffer = io.StringIO()
        real_out = self.interp.out
        self.interp.out = buffer
        try:
            self._step_into(line.strip(), buffer)
        finally:
            self.interp.out = real_out
        text = buffer.getvalue()
        real_out.write(text)
        return text

    def _step_into(self, line: str, buffer: io.StringIO) -> None:
        if not line:
            return
        if line == ".quit":
            self.active = False
            return
        if line == ".tree":
            buffer.write(render_tree(self.bridge.registry))
            return
        if line == ".pump":
            self.bridge.dispatcher.process_events()
            return
        if line.startswith("."):
            buffer.write(f"unknown command {line!r} (try {', '.join(META_COMMANDS)})\n")
            return
        try:
            program = parse(_terminated(line))
            result = self.interp.run(program, self.env)
            bare = bool(program) and isinstance(program[-1], SExprStmt)
            if bare and result is not None:
                buffer.write(render_value(result) + "\n")
        except RjsError as exc:
            buffer.write(f"error: {render_fault(exc)}\n")
        self.bridge.dispatcher.process_events()
