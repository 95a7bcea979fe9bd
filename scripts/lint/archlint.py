#!/usr/bin/env python3
"""Architecture, lifecycle and wire-coverage lints for the EXPRESS
simulator.

detlint.py (PR 4) catches statement-level determinism hazards; this
driver checks the contracts that span functions, classes and modules:

Architecture conformance (config: scripts/lint/layers.toml)
  arch-layer             an #include that creates a module edge the
                         declared layer DAG does not allow (upward or
                         sideways dependency).
  arch-cycle             the declared DAG itself has a cycle (config
                         error — reported against layers.toml).
  arch-unknown-module    a file or include target under a scan root
                         whose module has no [modules] entry.
  arch-include-cpp       #include of a translation unit (*.cpp —
                         router_events.cpp-style impl splits are not
                         an include surface).
  arch-private-header    #include of a [private]-listed header from a
                         module not on its allow list.
  arch-link              a target_link_libraries edge in a module's
                         CMakeLists.txt between two scanned modules
                         that layers.toml does not declare: the
                         build graph and the declared DAG must be the
                         same graph, declared once.
  arch-pragma-once       header without `#pragma once`.
  arch-self-containment  a header that names another module's
                         namespace (net::, obs::, sim::, ...)
                         without directly including a header of that
                         module.
  doc-banner             a module header that does not open with a
                         `//` banner comment of at least 3 lines
                         saying what the header provides (the docs
                         layer's entry point into the code; doclint.py
                         covers the markdown side).

Lifecycle flow
  handle-leak            an EventHandle returned by schedule_at /
                         schedule_after discarded at statement
                         position, or an EventHandle(-bearing) member
                         that no destructor/teardown method of its
                         class ever cancel()s. Suppress a deliberate
                         one-shot with `// lint: fire-and-forget (<why>)`.
  late-registration      obs registry slot creation (.bind<XStats>(...)
                         / .histogram("...")) outside a constructor or
                         init path: slots must exist before traffic so
                         snapshots are comparable run-to-run. Suppress
                         with `// lint: late-registration (<why>)`.
  drop-untraced          a *drop* field bumped in a function that never
                         emits a kPacketDropped/kPacketLost/
                         kPacketReordered trace (or calls a trace_drop
                         helper): the metric moves but replay debugging
                         sees nothing. Suppress with
                         `// lint: drop-untraced (<why>)`.

Wire & enum coverage
  wire-field-gap         a field of a declared wire struct missing from
                         the encode* or decode* bodies of its codec
                         (config: [[wire]] in layers.toml).
  enum-switch-gap        a switch over a project enum that neither
                         covers every enumerator nor justifies its
                         default with `// lint: partial-switch (<why>)`.

Zero third-party dependencies; see cpp_scan.py for the source model.
Exit 0 = clean, 1 = findings, 2 = usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tomllib

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cpp_scan  # noqa: E402
from cpp_scan import Finding, SourceFile, sort_findings  # noqa: E402


# --------------------------------------------------------------------------
# Config
# --------------------------------------------------------------------------

class Config:
    def __init__(self, data: dict, root: str):
        self.root = root
        self.roots: list[str] = data.get("scan", {}).get("roots", ["src"])
        self.universal: set[str] = set(
            data.get("universal", {}).get("headers", []))
        self.modules: dict[str, list[str]] = dict(data.get("modules", {}))
        self.private: dict[str, list[str]] = dict(data.get("private", {}))
        self.wire: list[dict] = list(data.get("wire", []))

    @staticmethod
    def load(path: str, root: str) -> "Config":
        with open(path, "rb") as fh:
            return Config(tomllib.load(fh), root)


def module_of(rel: str, cfg: Config):
    """Module of a path relative to a scan root ("net/lan.hpp" -> "net")."""
    return rel.split("/", 1)[0] if "/" in rel else None


def declared_cycle(cfg: Config):
    """A cycle in the declared DAG, as a list of modules, or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {m: WHITE for m in cfg.modules}
    stack: list[str] = []

    def visit(m):
        color[m] = GREY
        stack.append(m)
        for d in cfg.modules.get(m, []):
            if d not in color:
                continue
            if color[d] == GREY:
                return stack[stack.index(d):] + [d]
            if color[d] == WHITE:
                cyc = visit(d)
                if cyc:
                    return cyc
        stack.pop()
        color[m] = BLACK
        return None

    for m in sorted(cfg.modules):
        if color[m] == WHITE:
            cyc = visit(m)
            if cyc:
                return cyc
    return None


# --------------------------------------------------------------------------
# File model: one scan of every file, shared by all checks.
# --------------------------------------------------------------------------

class Tree:
    def __init__(self, cfg: Config, paths: list[str]):
        self.cfg = cfg
        self.files: list[SourceFile] = [cpp_scan.load(p) for p in paths]
        self.structure = {}  # path -> (functions, classes, enums)
        self.enums: list[cpp_scan.EnumDef] = []
        for sf in self.files:
            fns, classes, enums = cpp_scan.scan_structure(sf)
            self.structure[sf.path] = (fns, classes, enums)
            self.enums.extend(enums)
        #: class name -> every function extent of that class, cross-file
        #: (teardown methods usually live in the .cpp, members in the .hpp).
        self.by_class: dict[str, list] = {}
        for fns, _c, _e in self.structure.values():
            for fn in fns:
                if fn.cls:
                    self.by_class.setdefault(fn.cls, []).append(fn)

    def rel(self, sf: SourceFile):
        """(scan_root, path-inside-root) or (None, None) if outside."""
        norm = os.path.relpath(sf.path, self.cfg.root).replace(os.sep, "/")
        for r in self.cfg.roots:
            if norm.startswith(r + "/"):
                return r, norm[len(r) + 1:]
        return None, None


# --------------------------------------------------------------------------
# Family 1: architecture conformance
# --------------------------------------------------------------------------

def check_architecture(tree: Tree, findings: list) -> None:
    cfg = tree.cfg
    for sf in tree.files:
        _root, rel = tree.rel(sf)
        if rel is None:
            continue
        mod = module_of(rel, cfg)
        if mod is None:
            continue  # file directly under the root (e.g. CMakeLists)
        if mod not in cfg.modules:
            findings.append(Finding(
                "arch-unknown-module", sf.path, 1, 1,
                f"module `{mod}` has no entry in layers.toml [modules]"))
            continue
        allowed = set(cfg.modules[mod])
        for inc in cpp_scan.includes(sf):
            if inc.angled:
                continue
            target = inc.target
            if target.endswith((".cpp", ".cc")):
                findings.append(Finding(
                    "arch-include-cpp", sf.path, inc.line, inc.col,
                    f"`{target}` is a translation unit, not an include "
                    "surface"))
                continue
            tmod = module_of(target, cfg)
            if tmod is None:
                continue  # local unprefixed include
            if target in cfg.universal:
                continue
            if tmod == mod:
                continue
            if tmod not in cfg.modules:
                findings.append(Finding(
                    "arch-unknown-module", sf.path, inc.line, inc.col,
                    f"include target module `{tmod}` has no entry in "
                    "layers.toml [modules]"))
                continue
            if tmod not in allowed:
                findings.append(Finding(
                    "arch-layer", sf.path, inc.line, inc.col,
                    f"module `{mod}` may not depend on `{tmod}` "
                    f"(allowed: {', '.join(sorted(allowed)) or 'none'}); "
                    f"`{target}` creates an upward/sideways edge"))
            if target in cfg.private and mod not in cfg.private[target]:
                findings.append(Finding(
                    "arch-private-header", sf.path, inc.line, inc.col,
                    f"`{target}` is private to `{tmod}` (shared with: "
                    f"{', '.join(cfg.private[target]) or 'nobody'})"))


CMAKE_COMMENT_RE = re.compile(r"#[^\n]*")
CMAKE_CALL_RE = re.compile(
    r"\b(add_library|target_link_libraries)\s*\(([^)]*)\)", re.I)


def check_link_edges(cfg: Config, findings: list) -> None:
    """Every library a module's CMakeLists.txt links from another scanned
    module must be a declared dependency of that module."""
    lists = {}  # module -> (path, comment-stripped text)
    for r in cfg.roots:
        base = os.path.join(cfg.root, r)
        if not os.path.isdir(base):
            continue
        for mod in sorted(os.listdir(base)):
            path = os.path.join(base, mod, "CMakeLists.txt")
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    lists[mod] = (path, CMAKE_COMMENT_RE.sub("", fh.read()))
    owner = {}  # library target -> module defining it
    for mod, (_path, text) in lists.items():
        for m in CMAKE_CALL_RE.finditer(text):
            if m.group(1).lower() == "add_library":
                args = m.group(2).split()
                if args:
                    owner[args[0]] = mod
    for mod, (path, text) in sorted(lists.items()):
        if mod not in cfg.modules:
            continue  # reported as arch-unknown-module
        allowed = set(cfg.modules[mod])
        for m in CMAKE_CALL_RE.finditer(text):
            if m.group(1).lower() != "target_link_libraries":
                continue
            args = m.group(2).split()
            for dep in args[1:]:
                dmod = owner.get(dep)
                if dmod is None or dmod == mod or dmod in allowed:
                    continue
                off = m.start(2) + m.group(2).index(dep)
                line = text.count("\n", 0, off) + 1
                col = off - text.rfind("\n", 0, off)
                findings.append(Finding(
                    "arch-link", path, line, col,
                    f"`{args[0]}` links `{dep}`, but layers.toml does not "
                    f"declare `{mod}` -> `{dmod}` (allowed: "
                    f"{', '.join(sorted(allowed)) or 'none'})"))


HEADER_EXT = (".hpp", ".h")

#: Sub-namespaces that live in another module's header.
NAMESPACE_ALIASES = {"det": "sim"}


def check_headers(tree: Tree, findings: list) -> None:
    cfg = tree.cfg
    known = set(cfg.modules)
    for sf in tree.files:
        _root, rel = tree.rel(sf)
        if rel is None or not sf.path.endswith(HEADER_EXT):
            continue
        mod = module_of(rel, cfg)
        if "#pragma once" not in sf.raw:
            findings.append(Finding(
                "arch-pragma-once", sf.path, 1, 1,
                "header lacks `#pragma once`"))
        included = {module_of(i.target, cfg)
                    for i in cpp_scan.includes(sf) if not i.angled}
        used = set()
        for m in re.finditer(r"\b([a-z]\w*)\s*::", sf.code):
            q = NAMESPACE_ALIASES.get(m.group(1), m.group(1))
            if q in known and q != mod and q != "express":
                used.add((q, m.start(1)))
        seen = set()
        for q, off in sorted(used, key=lambda t: t[1]):
            if q in seen or q in included:
                continue
            seen.add(q)
            findings.append(Finding(
                "arch-self-containment", sf.path,
                sf.line_of(off), sf.col_of(off),
                f"header uses `{q}::` but does not include a `{q}/` "
                "header directly (relies on transitive includes)"))


#: A header's opening `//` run must be at least this many lines to count
#: as a banner (one-liners degenerate into restating the filename).
MIN_BANNER_LINES = 3


def check_doc_banners(tree: Tree, findings: list) -> None:
    for sf in tree.files:
        _root, rel = tree.rel(sf)
        if rel is None or not sf.path.endswith(HEADER_EXT):
            continue
        run_len = 0
        for line in sf.raw.splitlines():
            if line.startswith("//"):
                run_len += 1
            else:
                break
        if run_len < MIN_BANNER_LINES:
            findings.append(Finding(
                "doc-banner", sf.path, 1, 1,
                f"header opens with a {run_len}-line `//` comment; module "
                f"headers need a banner of >= {MIN_BANNER_LINES} lines "
                "stating what the header provides and how it fits the "
                "module (see existing src/ headers for the idiom)"))


# --------------------------------------------------------------------------
# Family 2: lifecycle flow
# --------------------------------------------------------------------------

SCHEDULE_CALL_RE = re.compile(r"(?:\.|->)\s*(schedule_at|schedule_after)\s*\(")

#: Method names that count as a teardown path for the member-cancel rule.
TEARDOWN_NAMES = frozenset(
    "stop leave shutdown teardown close clear reset detach deactivate "
    "disconnect fail cancel cancel_all".split())


def _statement_position(code: str, recv_end: int):
    """Walk a receiver chain (`a.b(c).d->`) backwards from `recv_end`
    (index just before the `.`/`->`). Returns the prefix between the
    statement boundary and the call when the call sits at statement
    position, else None."""
    i = recv_end
    while i >= 0:
        c = code[i]
        if c in " \t\n":
            i -= 1
        elif c == ")":
            depth = 0
            while i >= 0:
                if code[i] == ")":
                    depth += 1
                elif code[i] == "(":
                    depth -= 1
                    if depth == 0:
                        break
                i -= 1
            i -= 1
        elif c.isalnum() or c == "_":
            i -= 1
        elif c == "." or (c == ">" and i >= 1 and code[i - 1] == "-"):
            i -= 1 if c == "." else 2
        elif c == ":" and i >= 1 and code[i - 1] == ":":
            i -= 2
        else:
            break
    if i >= 0 and code[i] not in ";{}":
        return None
    return code[i + 1: recv_end + 1]


def check_handle_leaks(tree: Tree, findings: list) -> None:
    for sf in tree.files:
        # (a) discarded schedule result.
        for m in SCHEDULE_CALL_RE.finditer(sf.code):
            dot = m.start()
            prefix = _statement_position(sf.code, dot - 1)
            if prefix is None:
                continue
            if re.search(r"\b(return|co_return|co_await)\b", prefix):
                continue
            close = cpp_scan._match_bracket(sf.code, m.end() - 1)
            rest = sf.code[close + 1: close + 4].lstrip()
            if not rest.startswith(";"):
                continue  # chained / part of a larger expression
            line = sf.line_of(m.start(1))
            end_line = sf.line_of(close)
            if sf.suppressed("fire-and-forget", line, reach=2) or \
                    sf.suppressed("fire-and-forget", end_line, reach=0):
                continue
            findings.append(Finding(
                "handle-leak", sf.path, line, sf.col_of(m.start(1)),
                f"EventHandle returned by `{m.group(1)}` is discarded; "
                "store and cancel it on teardown, or annotate "
                "`// lint: fire-and-forget (<why>)`"))

        # (b) EventHandle members never cancelled on a teardown path.
        fns, classes, _enums = tree.structure[sf.path]
        seen_members = set()
        for hm in re.finditer(r"\bEventHandle\b", sf.code):
            off = hm.start()
            if cpp_scan.enclosing_function(fns, off) is not None:
                continue  # local variable / parameter / return type use
            owner = cpp_scan.in_class_body(classes, off)
            if owner is None or owner.name == "EventHandle":
                continue
            decl_start = max(sf.code.rfind(ch, 0, off) for ch in ";{}") + 1
            decl_end = cpp_scan.statement_end(sf.code, off)
            decl = re.sub(r"^\s*(?:public|private|protected)\s*:", "",
                          sf.code[decl_start:decl_end])
            head = decl.split("=", 1)[0]
            if re.match(r"\s*(using|typedef|friend|static)\b", decl):
                continue
            if _paren_at_angle_depth0(head):
                continue  # function declaration returning/taking a handle
            nm = re.search(r"([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?\s*$",
                           decl.rstrip())
            if not nm:
                continue
            member = nm.group(1)
            key = (owner.name, member)
            if key in seen_members:
                continue
            seen_members.add(key)
            line = sf.line_of(off)
            if sf.suppressed("fire-and-forget", line, reach=2):
                continue
            # A nested struct's handle may be torn down by the outer
            # class (Batcher::~Batcher cancels Queue::timer), so every
            # enclosing class counts as a potential owner.
            owners = [c.name for c in classes
                      if c.body_start < off < c.body_end]
            if any(_has_teardown_cancel(tree, o, member) for o in owners):
                continue
            findings.append(Finding(
                "handle-leak", sf.path, line, sf.col_of(off),
                f"EventHandle member `{member}` of `{owner.name}` is "
                "never cancel()ed on a teardown path (destructor or "
                f"{'/'.join(sorted(TEARDOWN_NAMES)[:4])}/... method); "
                "cancel it or annotate the member "
                "`// lint: fire-and-forget (<why>)`"))


def _paren_at_angle_depth0(text: str) -> bool:
    depth = 0
    for c in text:
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0:
            return True
    return False


def _has_teardown_cancel(tree: Tree, cls: str, member: str) -> bool:
    for fn in tree.by_class.get(cls, []):
        if not (fn.is_dtor or fn.name in TEARDOWN_NAMES):
            continue
        body = _body_text(tree, fn)
        if re.search(rf"\b{re.escape(member)}\b", body) and ".cancel(" in body:
            return True
    return False


def _body_text(tree: Tree, fn) -> str:
    for sf in tree.files:
        fns, _c, _e = tree.structure[sf.path]
        if fn in fns:
            return sf.code[fn.body_start: fn.body_end]
    return ""


#: A stats-block binding (`.bind<XStats>(...)`) or a histogram
#: registration (`.histogram("...")`).
REGISTRATION_RE = re.compile(r"\.\s*(bind)\s*<|\.\s*(histogram)\s*\(\s*\"")

#: Function-name patterns that count as an init path for registration.
INIT_NAME_RE = re.compile(r"^(init|setup|register_|ensure_)")


def check_registrations(tree: Tree, findings: list) -> None:
    for sf in tree.files:
        _root, rel = tree.rel(sf)
        if rel is not None and module_of(rel, tree.cfg) == "obs":
            continue  # the registry implementation itself
        fns, _classes, _enums = tree.structure[sf.path]
        for m in REGISTRATION_RE.finditer(sf.code):
            fn = cpp_scan.enclosing_function(fns, m.start())
            if fn is None:
                continue  # default member initializer: ctor-path
            if fn.is_ctor or INIT_NAME_RE.match(fn.name):
                continue
            line = sf.line_of(m.start())
            if sf.suppressed("late-registration", line, reach=2):
                continue
            findings.append(Finding(
                "late-registration", sf.path, line, sf.col_of(m.start()),
                f"registry slot `.{m.group(1) or m.group(2)}(...)` created in "
                f"`{fn.cls + '::' if fn.cls else ''}{fn.name}`, not a "
                "constructor/init path; snapshots diverge run-to-run "
                "when slot creation depends on traffic — move it or "
                "annotate `// lint: late-registration (<why>)`"))


#: A bump of a `*drop*` field: `++stats_->no_entry_drops` (through any
#: `.`/`->` member chain), `drops++` or `stats_->dropped_x += n`.
DROP_BUMP_RE = re.compile(
    r"\+\+\s*(?:\w+\s*(?:\.|->)\s*)*(\w*drop\w*)\b"
    r"|\b(\w*drop\w*)\s*(?:\+\+|\+=)")

DROP_TRACE_RE = re.compile(
    r"\bemit\s*\([^;]*k(?:PacketDropped|PacketLost|PacketReordered)\b"
    r"|\btrace_drop\s*\(")


def check_drop_traces(tree: Tree, findings: list) -> None:
    for sf in tree.files:
        fns, _classes, _enums = tree.structure[sf.path]
        for m in DROP_BUMP_RE.finditer(sf.code):
            name = m.group(1) or m.group(2)
            fn = cpp_scan.enclosing_function(fns, m.start())
            if fn is None:
                continue  # declaration / initializer, not a bump site
            body = sf.code[fn.body_start: fn.body_end]
            if DROP_TRACE_RE.search(body):
                continue
            line = sf.line_of(m.start())
            if sf.suppressed("drop-untraced", line, reach=2):
                continue
            findings.append(Finding(
                "drop-untraced", sf.path, line, sf.col_of(m.start()),
                f"drop counter `{name}` bumped without a paired "
                "kPacketDropped/kPacketLost trace emit in this function; "
                "emit the drop (no-op when tracing is off) or annotate "
                "`// lint: drop-untraced (<why>)`"))


# --------------------------------------------------------------------------
# Family 3: wire & enum coverage
# --------------------------------------------------------------------------

def struct_fields(sf: SourceFile, extent) -> list[tuple[str, int]]:
    """(field name, offset) members of a plain wire struct."""
    body = sf.code[extent.body_start + 1: extent.body_end]
    base = extent.body_start + 1
    fields = []
    depth = 0
    start = 0
    for k, c in enumerate(body):
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        elif c == ";" and depth == 0:
            stmt = body[start:k]
            off = base + start
            start = k + 1
            s = stmt.strip()
            if not s or re.match(
                    r"(public|private|protected)\s*:$", s):
                continue
            if re.match(r"(static|using|friend|enum|struct|class|typedef)\b",
                        s):
                continue
            head = re.split(r"[={]", s, 1)[0]
            if _paren_at_angle_depth0(head):
                continue  # member function declaration
            idents = re.findall(r"[A-Za-z_]\w*", head)
            if len(idents) < 2:
                continue
            name = idents[-1]
            fields.append((name, off + stmt.find(name)))
    return fields


def check_wire(tree: Tree, findings: list) -> None:
    by_path = {os.path.normpath(sf.path): sf for sf in tree.files}
    for pair in tree.cfg.wire:
        spath = os.path.normpath(os.path.join(tree.cfg.root, pair["structs"]))
        ssf = by_path.get(spath)
        if ssf is None:
            continue  # paths mode without the struct file loaded
        enc, dec = "", ""
        for cpath in pair["codecs"]:
            cnorm = os.path.normpath(os.path.join(tree.cfg.root, cpath))
            csf = by_path.get(cnorm)
            if csf is None:
                continue
            fns, _c, _e = tree.structure[csf.path]
            for fn in fns:
                body = csf.code[fn.body_start: fn.body_end]
                if fn.name.startswith("encode"):
                    enc += body
                elif fn.name.startswith("decode"):
                    dec += body
        _fns, classes, _enums = tree.structure[ssf.path]
        for tname in pair["types"]:
            extent = next((c for c in classes if c.name == tname), None)
            if extent is None:
                findings.append(Finding(
                    "wire-field-gap", ssf.path, 1, 1,
                    f"wire struct `{tname}` listed in layers.toml not "
                    "found"))
                continue
            for field, off in struct_fields(ssf, extent):
                missing = [side for side, text in (("encode", enc),
                                                   ("decode", dec))
                           if not re.search(rf"\b{re.escape(field)}\b", text)]
                if missing:
                    findings.append(Finding(
                        "wire-field-gap", ssf.path, ssf.line_of(off),
                        ssf.col_of(off),
                        f"field `{tname}.{field}` never touched by the "
                        f"{' or '.join(missing)} path of "
                        f"{', '.join(pair['codecs'])}"))


SWITCH_RE = re.compile(r"\bswitch\s*\(")
CASE_RE = re.compile(r"\bcase\s+([A-Za-z_][\w:]*)\s*:")
DEFAULT_RE = re.compile(r"\bdefault\s*:")


def check_enum_switches(tree: Tree, findings: list) -> None:
    for sf in tree.files:
        for m in SWITCH_RE.finditer(sf.code):
            close = cpp_scan._match_bracket(sf.code, m.end() - 1)
            brace = sf.code.find("{", close)
            if brace == -1 or sf.code[close + 1: brace].strip():
                continue
            body_end = cpp_scan.matching_brace(sf.code, brace)
            body = sf.code[brace + 1: body_end]
            labels = CASE_RE.findall(body)
            if not labels:
                continue
            covered, hints = set(), set()
            for label in labels:
                parts = label.split("::")
                covered.add(parts[-1])
                if len(parts) >= 2:
                    hints.add(parts[-2])
            if not hints and not all(e.startswith("k") for e in covered):
                continue  # int switch, not an enum
            enum = _resolve_enum(tree.enums, covered, hints)
            if enum is None:
                continue
            missing = sorted(set(enum.enumerators) - covered)
            if not missing:
                continue
            line = sf.line_of(m.start())
            dm = DEFAULT_RE.search(body)
            default_line = sf.line_of(brace + 1 + dm.start()) if dm else None
            if sf.suppressed("partial-switch", line, reach=2) or (
                    default_line is not None
                    and sf.suppressed("partial-switch", default_line,
                                      reach=2)):
                continue
            what = (f"default present but unjustified"
                    if dm else "and has no default")
            findings.append(Finding(
                "enum-switch-gap", sf.path, line, sf.col_of(m.start()),
                f"switch over `{enum.name}` misses "
                f"{', '.join(missing)} ({what}); add the cases or "
                "annotate `// lint: partial-switch (<why>)`"))


def _resolve_enum(enums, covered: set, hints: set):
    """The enum a switch targets: every case label must be one of its
    enumerators; qualifier hints (Type::kX) narrow the candidates.
    Returns None when unknown or when some fully-covered candidate
    exists (ambiguity is resolved generously)."""
    candidates = [e for e in enums if covered <= set(e.enumerators)]
    if hints:
        hinted = [e for e in candidates if e.name in hints]
        candidates = hinted or candidates
    if not candidates:
        return None
    for e in candidates:
        if set(e.enumerators) == covered:
            return e  # fully covered — caller reports nothing
    candidates.sort(key=lambda e: (len(set(e.enumerators) - covered),
                                   e.name, e.path, e.line))
    return candidates[0]


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def iter_sources(root: str, dirs: list):
    for d in dirs:
        base = os.path.join(root, d)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                    yield os.path.join(dirpath, name)


def run(root: str, config_path: str, only=None) -> list:
    cfg = Config.load(config_path, root)
    paths = list(iter_sources(root, cfg.roots))
    tree = Tree(cfg, paths)
    findings: list[Finding] = []

    cyc = declared_cycle(cfg)
    if cyc:
        findings.append(Finding(
            "arch-cycle", config_path, 1, 1,
            "declared layer DAG has a cycle: " + " -> ".join(cyc)))

    check_architecture(tree, findings)
    check_link_edges(cfg, findings)
    check_headers(tree, findings)
    check_doc_banners(tree, findings)
    check_handle_leaks(tree, findings)
    check_registrations(tree, findings)
    check_drop_traces(tree, findings)
    check_wire(tree, findings)
    check_enum_switches(tree, findings)

    if only is not None:
        keep = {os.path.normpath(os.path.abspath(p)) for p in only}
        findings = [f for f in findings
                    if os.path.normpath(os.path.abspath(f.path)) in keep
                    or f.check == "arch-cycle"]
    return sort_findings(findings)


# --------------------------------------------------------------------------
# Self-test — paired violating/clean fixtures. The arch family runs
# against the tests/lint_fixtures/arch/ mini-tree with its own
# layers.toml; the per-file families run against standalone fixtures
# with the real config's wire section swapped for the fixture pair.
# --------------------------------------------------------------------------

ARCH_SELF_TESTS = {
    "src/low/base.hpp": set(),
    "src/high/uses_low.hpp": set(),
    "src/low/bad_upward.hpp": {"arch-layer"},
    "src/high/includes_private.hpp": {"arch-private-header"},
    "src/high/no_pragma.hpp": {"arch-pragma-once"},
    "src/high/not_self_contained.hpp": {"arch-self-containment"},
    "src/high/includes_cpp.hpp": {"arch-include-cpp"},
    "src/low/no_banner.hpp": {"doc-banner"},
    "src/high/CMakeLists.txt": set(),
    "src/low/CMakeLists.txt": {"arch-link"},
}

FILE_SELF_TESTS = {
    "handle_leak.cpp": {"handle-leak"},
    "lifecycle_clean.cpp": set(),
    "drop_untraced.cpp": {"drop-untraced"},
    "late_registration.cpp": {"late-registration"},
    "partial_switch.cpp": {"enum-switch-gap"},
    "switch_clean.cpp": set(),
}

WIRE_SELF_TESTS = {
    "wire_gap.hpp": {"wire-field-gap"},
    "wire_clean.hpp": set(),
}

SELF_TEST_MIN_COUNTS = {
    "src/low/bad_upward.hpp": 1,
    "src/low/CMakeLists.txt": 2,  # one-line link + multi-line link
    "handle_leak.cpp": 2,        # discarded handle + uncancelled member
    "partial_switch.cpp": 2,     # no-default gap + unjustified default
    "drop_untraced.cpp": 2,      # ++ bump + compound-assignment bump
    "late_registration.cpp": 2,  # late bind<> + late histogram
}


def _fixture_wire_cfg(name: str) -> dict:
    stem = name[: -len(".hpp")]
    return {"structs": name, "codecs": [f"{stem}_codec.cpp"],
            "types": ["Probe"]}


def self_test(root: str) -> int:
    fixture_dir = os.path.join(root, "tests", "lint_fixtures")
    failures: list[str] = []
    per_file: dict[str, list] = {}

    # Arch family: whole mini-tree in one run.
    arch_root = os.path.join(fixture_dir, "arch")
    arch_cfg = os.path.join(arch_root, "layers.toml")
    if not os.path.exists(arch_cfg):
        failures.append("arch/layers.toml: fixture missing")
    else:
        for f in run(arch_root, arch_cfg):
            rel = os.path.relpath(f.path, arch_root).replace(os.sep, "/")
            per_file.setdefault(rel, []).append(f)
        for name, expected in sorted(ARCH_SELF_TESTS.items()):
            if not os.path.exists(os.path.join(arch_root, name)):
                failures.append(f"{name}: fixture missing")
                continue
            _assert_fired(name, expected, per_file.get(name, []), failures)

    # Per-file families share one Tree per fixture (enums and teardown
    # methods are file-local in the fixtures).
    base_cfg = Config({"modules": {}}, fixture_dir)
    for name, expected in sorted(FILE_SELF_TESTS.items()):
        path = os.path.join(fixture_dir, name)
        if not os.path.exists(path):
            failures.append(f"{name}: fixture missing")
            continue
        tree = Tree(base_cfg, [path])
        found: list[Finding] = []
        check_handle_leaks(tree, found)
        check_registrations(tree, found)
        check_drop_traces(tree, found)
        check_enum_switches(tree, found)
        _assert_fired(name, expected, found, failures)

    for name, expected in sorted(WIRE_SELF_TESTS.items()):
        path = os.path.join(fixture_dir, name)
        codec = os.path.join(fixture_dir,
                             _fixture_wire_cfg(name)["codecs"][0])
        if not os.path.exists(path) or not os.path.exists(codec):
            failures.append(f"{name}: fixture (or codec) missing")
            continue
        cfg = Config({"modules": {}, "wire": [_fixture_wire_cfg(name)]},
                     fixture_dir)
        tree = Tree(cfg, [path, codec])
        found: list[Finding] = []
        check_wire(tree, found)
        _assert_fired(name, expected, found, failures)

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL {f}")
        return 1
    total = len(ARCH_SELF_TESTS) + len(FILE_SELF_TESTS) + len(WIRE_SELF_TESTS)
    print(f"archlint self-test: {total} fixtures OK")
    return 0


def _assert_fired(name, expected, findings, failures):
    fired = {f.check for f in findings}
    missing = expected - fired
    unexpected = fired - expected
    if missing:
        failures.append(f"{name}: expected check(s) did not fire: "
                        f"{sorted(missing)}")
    if unexpected:
        failures.append(
            f"{name}: unexpected check(s) fired: {sorted(unexpected)} — "
            + "; ".join(f.render() for f in findings
                        if f.check in unexpected))
    want = SELF_TEST_MIN_COUNTS.get(name)
    if want is not None and len(findings) < want:
        failures.append(f"{name}: expected >= {want} findings, "
                        f"got {len(findings)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="report findings only for these files (the whole "
                    "tree is still scanned for cross-file context); "
                    "default: report everything")
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this script)")
    ap.add_argument("--config", default=None,
                    help="layers.toml path (default: next to this script)")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as a JSON array (for CI annotation)")
    ap.add_argument("--self-test", action="store_true",
                    help="run against tests/lint_fixtures/ and assert each "
                    "check fires on its fixture")
    args = ap.parse_args(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    root = args.root or os.path.dirname(os.path.dirname(here))
    config = args.config or os.path.join(here, "layers.toml")
    if args.self_test:
        return self_test(root)
    if not os.path.exists(config):
        print(f"archlint: config not found: {config}", file=sys.stderr)
        return 2
    findings = run(root, config, only=args.paths or None)
    if args.json:
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render())
    if findings:
        print(f"archlint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
