#!/usr/bin/env python3
"""Determinism & protocol-safety lints for the EXPRESS simulator.

The repo's headline guarantee is bit-for-bit deterministic replay
(DESIGN.md §7). The compiler cannot see the class of bug that breaks
it — iterating a hash map in a loop whose body emits packets — so this
driver implements the checks as source lints:

  unordered-effectful-loop   range-for over a std::unordered_{map,set}
                             whose body sends messages, schedules
                             events, appends to an output list, or
                             feeds stats. Fix: use std::map/std::set
                             or annotate
                             `// lint: order-independent (<why>)`.
  banned-construct           rand()/srand()/std::random_device, wall
                             clocks (system_clock, time(), ...), and
                             raw new/delete outside the slab allocator
                             (suppress with `// lint: allow-new (<why>)`).
  uninitialized-message-pod  POD members of wire/message structs with
                             no default initializer (uninitialized
                             bytes => nondeterministic traces and
                             MSan/valgrind noise).
  discarded-effect           a protocol-effect method (UpstreamPlan,
                             VerdictEffects, ...) called as a bare
                             statement. [[nodiscard]] +
                             -Werror=unused-result catches this at
                             compile time; the lint reports it without
                             a build and covers future effect methods
                             listed in CONFIG.
  bare-suppression           a `// lint:` annotation with no
                             justification, or an unknown tag.

Zero third-party dependencies (no libclang in the container); see
cpp_scan.py for the source model. Exit 0 = clean, 1 = findings,
2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cpp_scan  # noqa: E402
from cpp_scan import (  # noqa: E402
    Finding, KNOWN_TAGS, SourceFile, sort_findings,
)

CONFIG = {
    # Directories scanned for loops / banned constructs (repo-relative).
    "src_dirs": ["src"],
    # Wall clocks are also banned in src/ only: bench/ legitimately
    # times wall-clock throughput, tests may too.
    "clock_dirs": ["src"],
    # Files whose structs are wire/message formats: every POD member
    # must carry a default initializer.
    "message_struct_files": [
        "src/ecmp/messages.hpp",
        "src/ecmp/session.hpp",
        "src/baseline/wire.hpp",
        "src/relay/wire.hpp",
        "src/net/packet.hpp",
        "src/express/fib.hpp",
    ],
    # Methods returning protocol-effect values that must be consumed.
    "effect_methods": [
        "plan_upstream_update",
        "apply_upstream_verdict",
        "apply_route_switch",
        "udp_refresh_actions",
        "collect_dead_children",
        "query_children",
        "expire",
    ],
}

# A loop body "has effects" when packet-emission order would leak into
# the trace: message sends, scheduled events, appends to an ordered
# output, or stat counters that feed reports.
EFFECT_RE = re.compile(
    r"""
    \b(?:send|transmit|emit|notify|deliver|schedule|enqueue|flush
        |reply|forward|replicate|announce|reannounce|graft|broadcast
        |push|unicast|multicast)\w*\s*\(
    | \.(?:push_back|emplace_back|append)\s*\(
    | \bstats_(?:\.|->)\w+\s*(?:\+\+|--|\+=|-=|=)
    | \+\+\s*stats_(?:\.|->)
    """,
    re.VERBOSE,
)

# Loss-model / jitter randomness must come from a seeded sim::Rng owned
# by the scenario: libc generators and the std <random> engines and
# distributions all carry hidden state the replay cannot reproduce.
BANNED_RANDOM_RE = re.compile(
    r"\b(?:rand|srand|random|drand48|lrand48)\s*\(|std::random_device"
    r"|std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine)\b"
    r"|std::\w+_distribution\b"
)
BANNED_CLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|\b(?:time|gettimeofday|clock_gettime|localtime|gmtime|clock)\s*\(\s*(?:NULL|nullptr|&|\))"
)
# `::new (ptr) T(...)` placement-new is the slab allocator's bread and
# butter — only plain heap `new` / `delete` are flagged.
RAW_NEW_RE = re.compile(r"(?<![:.\w])new\s+[A-Za-z_:<]")
RAW_DELETE_RE = re.compile(r"(?<![:.\w])delete(?:\s*\[\s*\])?\s+[A-Za-z_*(]")

RANGE_FOR_RE = re.compile(r"\bfor\s*\(")

POD_MEMBER_RE = re.compile(
    r"""^\s*
    (?:static\s+|constexpr\s+|mutable\s+)*
    (?P<type>(?:std::)?(?:u?int(?:8|16|32|64)?_t|size_t|ssize_t|ptrdiff_t
        |bool|char|float|double|unsigned(?:\s+\w+)?|signed(?:\s+\w+)?
        |int|long(?:\s+\w+)?|short))
    \s+ (?P<name>\w+) (?P<array>\s*\[[^\]]*\])?
    \s* (?P<init>=[^;]*|\{[^;]*\})? \s* ;
    """,
    re.VERBOSE,
)


# --------------------------------------------------------------------------
# Registry of unordered-container names and accessors. Accessors are
# global (cross-file: a loop in router.cpp may iterate an accessor
# declared in subscription.hpp). A variable or member name is scoped to
# its declaring class, or its file outside any class, so an unordered
# `sg_` in one class does not make another class's std::map `sg_`
# unordered; only a member reached through an object (`state.x`,
# `p->x`) is matched by name alone.
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")

#: The FlatFib (aliased `Fib`) is unordered for lint purposes too: its
#: entries() view is in open-addressed table order — deterministic, but a
#: function of the whole upsert/erase history, so effectful iteration
#: is the same replay hazard as a hash map.
FLATFIB_DECL_RE = re.compile(r"\b(?:FlatFib|Fib)\b")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def skip_template_args(code: str, open_idx: int) -> int:
    """Index just past the '>' matching '<' at open_idx (angle depth only;
    good enough for container template argument lists)."""
    depth = 0
    i = open_idx
    while i < len(code):
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{":  # malformed / not a template arg list
            return i
        i += 1
    return i


def scope_at(sf: SourceFile, structure, offset: int) -> tuple[str, str]:
    """The scope a name at `offset` resolves in: ("class", name) inside a
    class body or a member function (inline or out-of-line), else
    ("file", path)."""
    functions, classes, _enums = structure
    fn = cpp_scan.enclosing_function(functions, offset)
    if fn is not None and fn.cls:
        return ("class", fn.cls)
    ce = cpp_scan.in_class_body(classes, offset)
    if ce is not None:
        return ("class", ce.name)
    return ("file", sf.path)


def collect_unordered_names(files: list[SourceFile],
                            structures: dict) -> tuple[dict, set]:
    """({variable/member name: declaring scopes}, accessor-method names)
    of unordered containers declared anywhere in the scanned tree."""
    variables: dict[str, set] = {}
    accessors: set[str] = set()
    for sf in files:
        decls = []
        for m in UNORDERED_DECL_RE.finditer(sf.code):
            decls.append(skip_template_args(sf.code, m.end() - 1))
        # Same declaration shapes for FlatFib; `Fib::method` definitions,
        # `class FlatFib {` and `using Fib = ...` yield no identifier and
        # fall through.
        decls.extend(m.end() for m in FLATFIB_DECL_RE.finditer(sf.code))
        for end in decls:
            rest = sf.code[end : end + 160]
            rm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*(\(|[;={])", rest)
            if not rm:
                continue
            name, tail = rm.group(1), rm.group(2)
            if tail == "(":
                accessors.add(name)
            else:
                scope = scope_at(sf, structures[sf.path], end)
                variables.setdefault(name, set()).add(scope)
    return variables, accessors


# --------------------------------------------------------------------------
# Check: unordered-effectful-loop
# --------------------------------------------------------------------------

def check_unordered_loops(sf: SourceFile, structure, variables: dict,
                          accessors: set, findings: list) -> None:
    for m in RANGE_FOR_RE.finditer(sf.code):
        open_paren = m.end() - 1
        close = match_paren(sf.code, open_paren)
        header = sf.code[open_paren + 1 : close]
        colon = split_range_for(header)
        if colon is None:
            continue  # classic for(;;): index order is explicit
        range_expr = header[colon + 1 :].strip()
        scope = scope_at(sf, structure, m.start())
        if not mentions_unordered(range_expr, scope, variables, accessors):
            continue
        line = sf.line_of(m.start())
        col = sf.col_of(m.start())
        body = sf.code[close + 1 : cpp_scan.statement_end(sf.code, close + 1) + 1]
        if not EFFECT_RE.search(body):
            continue
        if sf.suppressed("order-independent", line, reach=2) or sf.suppressed(
            "order-independent", line + 1, reach=0
        ):
            continue
        findings.append(
            Finding(
                "unordered-effectful-loop", sf.path, line, col,
                f"iteration over unordered container `{range_expr}` has "
                "order-dependent effects; use std::map/std::set or "
                "annotate `// lint: order-independent (<why>)`",
            )
        )


def match_paren(code: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def split_range_for(header: str):
    """Offset of the range-for ':' in a for-header, or None. Skips '::'
    and ternaries inside parens/brackets."""
    depth = 0
    i = 0
    while i < len(header):
        c = header[i]
        if c in "([<":
            depth += 1
        elif c in ")]>":
            depth -= 1
        elif c == ":" and depth == 0:
            if i + 1 < len(header) and header[i + 1] == ":":
                i += 2
                continue
            if i > 0 and header[i - 1] == ":":
                i += 1
                continue
            return i
        i += 1
    return None


def mentions_unordered(range_expr: str, scope: tuple, variables: dict,
                       accessors: set) -> bool:
    if "unordered_" in range_expr:
        return True
    for ident in IDENT_RE.finditer(range_expr):
        name = ident.group(0)
        after = range_expr[ident.end() :].lstrip()
        if name in accessors and after.startswith("("):
            return True
        if name in variables and not after.startswith("("):
            before = range_expr[: ident.start()].rstrip()
            through_object = before.endswith((".", "->"))
            if through_object or scope in variables[name]:
                return True
    return False


# --------------------------------------------------------------------------
# Check: banned-construct
# --------------------------------------------------------------------------

def check_banned(sf: SourceFile, ban_clocks: bool, findings: list) -> None:
    for m in BANNED_RANDOM_RE.finditer(sf.code):
        findings.append(
            Finding("banned-construct", sf.path, sf.line_of(m.start()),
                    sf.col_of(m.start()),
                    f"`{m.group(0).strip()}`: unseeded/libc randomness breaks "
                    "replay; use a seeded engine owned by the scenario")
        )
    if ban_clocks:
        for m in BANNED_CLOCK_RE.finditer(sf.code):
            findings.append(
                Finding("banned-construct", sf.path, sf.line_of(m.start()),
                        sf.col_of(m.start()),
                        f"`{m.group(0).strip()}`: wall-clock reads in the "
                        "simulator core break replay; use sim::Scheduler time")
            )
    for regex, what in ((RAW_NEW_RE, "new"), (RAW_DELETE_RE, "delete")):
        for m in regex.finditer(sf.code):
            line = sf.line_of(m.start())
            if sf.suppressed("allow-new", line, reach=2):
                continue
            findings.append(
                Finding("banned-construct", sf.path, line,
                        sf.col_of(m.start()),
                        f"raw `{what}` outside the slab allocator; use the "
                        "slab/value semantics or annotate "
                        "`// lint: allow-new (<why>)`")
            )


# --------------------------------------------------------------------------
# Check: uninitialized-message-pod
# --------------------------------------------------------------------------

STRUCT_RE = re.compile(r"\b(?:struct|class)\s+(?:\[\[\w+\]\]\s*)?(\w+)[^;{]*\{")


def check_message_pods(sf: SourceFile, findings: list) -> None:
    for sm in STRUCT_RE.finditer(sf.code):
        body_start = sm.end() - 1
        body_end = cpp_scan.matching_brace(sf.code, body_start)
        body = sf.code[body_start + 1 : body_end]
        base_off = body_start + 1
        depth_guard = 0
        for raw_line in split_statement_lines(body):
            text, off = raw_line
            depth_guard += text.count("{") - text.count("}")
            if depth_guard > 0 and "{" not in text:
                continue  # inside a nested function body
            pm = POD_MEMBER_RE.match(text)
            if pm is None or pm.group("init"):
                continue
            if "(" in text.split(";")[0] and "[" not in text:
                continue  # function declaration
            name_off = base_off + off + pm.start("name")
            findings.append(
                Finding(
                    "uninitialized-message-pod", sf.path,
                    sf.line_of(name_off), sf.col_of(name_off),
                    f"member `{pm.group('name')}` of message struct "
                    f"`{sm.group(1)}` has no default initializer "
                    "(uninitialized wire bytes are nondeterministic)",
                )
            )


def split_statement_lines(body: str):
    off = 0
    for line in body.split("\n"):
        yield line, off
        off += len(line) + 1


# --------------------------------------------------------------------------
# Check: discarded-effect
# --------------------------------------------------------------------------

def check_discarded_effects(sf: SourceFile, findings: list) -> None:
    methods = "|".join(CONFIG["effect_methods"])
    call_re = re.compile(r"\b(" + methods + r")\s*\(")
    for m in call_re.finditer(sf.code):
        # Walk back over the receiver chain (obj.a->b::c) to the start
        # of the statement.
        i = m.start() - 1
        while i >= 0 and (sf.code[i].isalnum() or sf.code[i] in "_.:>-) \t\n"):
            if sf.code[i] == ")":
                break  # mid-expression, e.g. f(x).expire(...)
            i -= 1
        if i >= 0 and sf.code[i] not in ";{}":
            continue  # assigned, returned, passed as an argument, ...
        prefix = sf.code[i + 1 : m.start()].strip()
        if re.search(r"\b(return|co_return|if|while|for|switch|case)\b", prefix):
            continue
        if "=" in prefix or "(" in prefix:
            continue
        # A statement-position call is `method(...)` or `recv.method(...)`;
        # anything else directly before the name is a return type, i.e.
        # this is a declaration, not a call.
        if prefix and not prefix.endswith((".", "->", "::")):
            continue
        # Bare statement: `obj.method(...);` with the result dropped.
        end = match_paren(sf.code, m.end() - 1)
        rest = sf.code[end + 1 : end + 4].lstrip()
        if not rest.startswith(";") and not rest.startswith("."):
            continue
        if rest.startswith("."):
            continue  # chained: result is consumed
        findings.append(
            Finding("discarded-effect", sf.path, sf.line_of(m.start()),
                    sf.col_of(m.start()),
                    f"result of `{m.group(1)}()` discarded; protocol-effect "
                    "values must be consumed ([[nodiscard]] enforces this in "
                    "the build too)")
        )


# --------------------------------------------------------------------------
# Check: bare-suppression
# --------------------------------------------------------------------------

def check_suppressions(sf: SourceFile, findings: list) -> None:
    for s in sf.suppressions:
        if s.tag not in KNOWN_TAGS:
            findings.append(
                Finding("bare-suppression", sf.path, s.line, s.col,
                        f"unknown lint tag `{s.tag}` (known: "
                        f"{', '.join(KNOWN_TAGS)})")
            )
        elif not s.justified:
            findings.append(
                Finding("bare-suppression", sf.path, s.line, s.col,
                        f"`lint: {s.tag}` needs a (justification)")
            )


# --------------------------------------------------------------------------
# Self-test: every violation class has a fixture that must trip exactly
# its own check, plus a clean positive control. Run by ctest
# (`scripts/lint.sh --self-test`) so a silently broken lint fails CI.
# --------------------------------------------------------------------------

SELF_TESTS = {
    "unordered_effectful_loop.cpp": {"unordered-effectful-loop"},
    "flat_fib_loop.cpp": {"unordered-effectful-loop"},
    "scoped_member_names.cpp": {"unordered-effectful-loop"},
    "banned_constructs.cpp": {"banned-construct"},
    "uninitialized_message_pod.cpp": {"uninitialized-message-pod"},
    "discarded_effects.cpp": {"discarded-effect"},
    "bare_suppression.cpp": {"bare-suppression"},
    "wall_clock_in_obs.cpp": {"banned-construct"},
    "loss_model_rand.cpp": {"banned-construct"},
    "clean.cpp": set(),
}

#: Minimum finding count per fixture (a check that fires once when the
#: fixture plants four violations is broken too).
SELF_TEST_MIN_COUNTS = {
    "banned_constructs.cpp": 4,       # rand, time, new, delete
    "uninitialized_message_pod.cpp": 2,  # seq, urgent
    "loss_model_rand.cpp": 3,  # rand, mt19937, bernoulli_distribution
}

#: Exact finding count for fixtures that plant a positive control next
#: to their violation: one more finding means the control tripped.
SELF_TEST_EXACT_COUNTS = {
    "unordered_effectful_loop.cpp": 1,  # the std::map loop stays clean
    "flat_fib_loop.cpp": 1,             # the annotated loop stays clean
    "scoped_member_names.cpp": 1,       # the other class's std::map stays clean
}


def self_test(root: str) -> int:
    fixture_dir = os.path.join(root, "tests", "lint_fixtures")
    failures = []
    for name, expected in sorted(SELF_TESTS.items()):
        path = os.path.join(fixture_dir, name)
        if not os.path.exists(path):
            failures.append(f"{name}: fixture missing")
            continue
        findings = run(root, [path])
        fired = {f.check for f in findings}
        missing = expected - fired
        unexpected = fired - expected
        if missing:
            failures.append(f"{name}: expected check(s) did not fire: "
                            f"{sorted(missing)}")
        if unexpected:
            failures.append(f"{name}: unexpected check(s) fired: "
                            f"{sorted(unexpected)} — "
                            + "; ".join(f.render() for f in findings
                                        if f.check in unexpected))
        want = SELF_TEST_MIN_COUNTS.get(name)
        if want is not None and len(findings) < want:
            failures.append(f"{name}: expected >= {want} findings, "
                            f"got {len(findings)}")
        exact = SELF_TEST_EXACT_COUNTS.get(name)
        if exact is not None and len(findings) != exact:
            failures.append(f"{name}: expected exactly {exact} findings, "
                            f"got {len(findings)} — "
                            + "; ".join(f.render() for f in findings))
    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL {f}")
        return 1
    print(f"detlint self-test: {len(SELF_TESTS)} fixtures OK")
    return 0


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


def run(root: str, paths=None) -> list:
    findings: list[Finding] = []
    if paths:
        files = [cpp_scan.load(p) for p in paths]
    else:
        files = [cpp_scan.load(p) for p in iter_sources(root, CONFIG["src_dirs"])]
    structures = {sf.path: cpp_scan.scan_structure(sf) for sf in files}
    variables, accessors = collect_unordered_names(files, structures)

    msg_files = {os.path.normpath(os.path.join(root, p))
                 for p in CONFIG["message_struct_files"]}
    clock_dirs = tuple(os.path.normpath(os.path.join(root, d)) + os.sep
                       for d in CONFIG["clock_dirs"])

    for sf in files:
        norm = os.path.normpath(os.path.abspath(sf.path))
        # Fixtures opt into every check; explicit paths otherwise keep
        # the same per-file rules as the sweep (lint.sh --changed must
        # not apply message-struct rules to ordinary classes).
        fixture = f"{os.sep}lint_fixtures{os.sep}" in norm
        ban_clocks = fixture or norm.startswith(clock_dirs)
        check_unordered_loops(sf, structures[sf.path], variables, accessors,
                              findings)
        check_banned(sf, ban_clocks, findings)
        if fixture or norm in msg_files:
            check_message_pods(sf, findings)
        check_discarded_effects(sf, findings)
        check_suppressions(sf, findings)

    return sort_findings(findings)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="lint only these files (all checks apply); "
                    "default: sweep the configured source dirs")
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this script)")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as a JSON array (for CI annotation)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the lints against tests/lint_fixtures/ and "
                    "assert each violation class is caught")
    args = ap.parse_args(argv)
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if args.self_test:
        return self_test(root)
    findings = run(root, args.paths or None)
    if args.json:
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render())
    if findings:
        print(f"detlint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
