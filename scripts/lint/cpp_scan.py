"""Lightweight C++ source scanning for the determinism lints.

No libclang in the build container, so the custom lints work on a
token-ish view of the source: comments and string/char literals are
blanked (replaced with spaces, preserving byte offsets and line
numbers), and a small brace matcher recovers statement/block extents.
That is enough for the checks in detlint.py and archlint.py, all of
which are line/region pattern checks rather than full semantic
analysis. On top of the blanked view this module recovers three
structural facts archlint needs: the include list (from the *raw*
text, because string blanking hides the `"..."` target), function
extents (name, enclosing class, constructor/destructor-ness, body
span), and `enum class` enumerator sets.

The suppression comments the lints honour are extracted *before*
blanking, keyed by line number:

    // lint: order-independent (<why>)
    // lint: allow-new (<why>)
    // lint: fire-and-forget (<why>)
    // lint: partial-switch (<why>)
    // lint: drop-untraced (<why>)
    // lint: late-registration (<why>)

A justification in parentheses is mandatory — a bare annotation is
itself a lint error (reported by detlint).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


LINT_COMMENT_RE = re.compile(
    r"//\s*lint:\s*(?P<tag>[a-z-]+)\s*(?P<why>\([^)]*\))?"
)

#: Suppression tags the lints understand (detlint + archlint).
KNOWN_TAGS = (
    "order-independent",
    "allow-new",
    "fire-and-forget",
    "partial-switch",
    "drop-untraced",
    "late-registration",
)


@dataclass
class Suppression:
    tag: str
    line: int  # 1-based line the comment sits on
    justified: bool  # has a non-empty (...) justification
    col: int = 1  # 1-based column of the comment


@dataclass
class Finding:
    """One lint finding; shared between detlint and archlint so both
    render and serialize identically (stable sort, --json)."""

    check: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.check}] " \
               f"{self.message}"

    def to_dict(self) -> dict:
        return {"check": self.check, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}


def sort_findings(findings: list) -> list:
    """Stable canonical order: path, line, col, check, message."""
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.check, f.message))
    return findings


@dataclass
class SourceFile:
    path: str
    raw: str
    #: raw with comments and string/char literals blanked to spaces.
    code: str = ""
    #: lint suppression comments, in file order.
    suppressions: list[Suppression] = field(default_factory=list)

    def line_of(self, offset: int) -> int:
        """1-based line number of a byte offset."""
        return self.raw.count("\n", 0, offset) + 1

    def col_of(self, offset: int) -> int:
        """1-based column of a byte offset."""
        nl = self.raw.rfind("\n", 0, offset)
        return offset - nl  # nl == -1 works: offset + 1

    def line_text(self, line: int) -> str:
        lines = self.raw.splitlines()
        return lines[line - 1] if 1 <= line <= len(lines) else ""

    def suppressed(self, tag: str, line: int, reach: int = 1) -> bool:
        """True when a justified `tag` suppression sits on `line` or up
        to `reach` lines above it (annotation-above-statement style)."""
        for s in self.suppressions:
            if s.tag == tag and s.justified and line - reach <= s.line <= line:
                return True
        return False


def strip_code(raw: str) -> tuple[str, list[Suppression]]:
    """Blank comments and literals; collect lint suppression comments.

    Keeps newlines so offsets map to the same line numbers as `raw`.
    """
    out = list(raw)
    suppressions: list[Suppression] = []
    i, n = 0, len(raw)

    def blank(start: int, end: int) -> None:
        for j in range(start, end):
            if out[j] != "\n":
                out[j] = " "

    while i < n:
        c = raw[i]
        nxt = raw[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = raw.find("\n", i)
            end = n if end == -1 else end
            m = LINT_COMMENT_RE.search(raw, i, end)
            if m:
                why = m.group("why")
                suppressions.append(
                    Suppression(
                        tag=m.group("tag"),
                        line=raw.count("\n", 0, i) + 1,
                        justified=bool(why and why.strip("() \t")),
                        col=m.start() - raw.rfind("\n", 0, m.start()),
                    )
                )
            blank(i, end)
            i = end
        elif c == "/" and nxt == "*":
            end = raw.find("*/", i + 2)
            end = n if end == -1 else end + 2
            blank(i, end)
            i = end
        elif c == '"':
            # Skip raw strings wholesale: R"delim(...)delim", including
            # the encoding-prefixed forms LR" / uR" / UR" / u8R". The
            # prefix must be a complete token: `FACTOR"(km)"` is an
            # identifier followed by an ordinary string, not a raw one.
            prefix = _raw_string_prefix(raw, i)
            if prefix:
                m = re.match(r'"([^(\s\\)]*)\(', raw[i:])
                if m:
                    close = ")" + m.group(1) + '"'
                    end = raw.find(close, i + 1)
                    end = n if end == -1 else end + len(close)
                    blank(i, end)
                    i = end
                    continue
            j = i + 1
            while j < n and raw[j] != '"':
                if raw[j] == "\\":
                    j += 1
                j += 1
            blank(i + 1, min(j, n))
            i = min(j, n) + 1
        elif c == "'":
            # A quote inside a numeric literal (1'000'000, 0xFF'FF) is a
            # digit separator, not a char-literal open: leave it alone
            # or the scanner blanks real code between the "quotes".
            # `L'x'`/`u8'x'` stay char literals: their preceding token
            # is not numeric.
            if (
                i >= 1
                and i + 1 < n
                and raw[i - 1].isalnum()
                and raw[i + 1].isalnum()
                and _numeric_token_before(raw, i)
            ):
                i += 1
                continue
            j = i + 1
            while j < n and raw[j] != "'":
                if raw[j] == "\\":
                    j += 1
                j += 1
            blank(i + 1, min(j, n))
            i = min(j, n) + 1
        else:
            i += 1
    return "".join(out), suppressions


def _numeric_token_before(raw: str, quote: int) -> bool:
    """True when the token ending just before `quote` is a numeric
    literal (so the quote is a C++14 digit separator)."""
    j = quote - 1
    # `'` is part of the walk-back set so 0xFF'FF'00 resolves to the
    # literal's first character, not the segment after the previous
    # separator.
    while j >= 0 and (raw[j].isalnum() or raw[j] in "_.'"):
        j -= 1
    return j + 1 < quote and raw[j + 1].isdigit()


def _raw_string_prefix(raw: str, quote: int) -> str:
    """The raw-string prefix ending at `quote` ("R", "LR", ... or "")."""
    for p in ("u8R", "uR", "UR", "LR", "R"):
        start = quote - len(p)
        if start < 0 or not raw.startswith(p, start):
            continue
        before = raw[start - 1] if start > 0 else ""
        if before.isalnum() or before == "_":
            continue  # tail of a longer identifier, not a prefix token
        return p
    return ""


def load(path: str) -> SourceFile:
    with open(path, encoding="utf-8", errors="replace") as fh:
        raw = fh.read()
    sf = SourceFile(path=path, raw=raw)
    sf.code, sf.suppressions = strip_code(raw)
    return sf


def matching_brace(code: str, open_idx: int) -> int:
    """Index of the '}' matching the '{' at open_idx, or len(code)."""
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def statement_end(code: str, start: int) -> int:
    """End offset of the statement starting at `start`: either the
    matching '}' of the first top-level '{', or the first top-level ';'
    (for brace-less loop bodies)."""
    depth = 0
    i = start
    n = len(code)
    while i < n:
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "{" and depth == 0:
            return matching_brace(code, i)
        elif c == ";" and depth == 0:
            return i
        i += 1
    return n


# --------------------------------------------------------------------------
# Includes — extracted from the *raw* text: the literal blanking above
# keeps the quote characters but blanks the path between them.
# --------------------------------------------------------------------------

@dataclass
class Include:
    target: str  # include path as written ("net/packet.hpp", "vector")
    angled: bool  # <...> (system) vs "..." (project)
    line: int
    col: int
    offset: int


INCLUDE_RE = re.compile(
    r'^[ \t]*#[ \t]*include[ \t]*(?P<open>["<])(?P<target>[^">]+)[">]',
    re.MULTILINE,
)


def includes(sf: SourceFile) -> list[Include]:
    out = []
    for m in INCLUDE_RE.finditer(sf.raw):
        off = m.start("target")
        hash_off = sf.raw.index("#", m.start())
        if sf.code[hash_off] != "#":
            continue  # directive sits inside a /* block comment */
        out.append(Include(target=m.group("target"),
                           angled=m.group("open") == "<",
                           line=sf.line_of(off), col=sf.col_of(off),
                           offset=off))
    return out


# --------------------------------------------------------------------------
# Function / class / enum extents. A single recursive pass over the
# blanked code: class bodies are descended into (to find inline methods
# and nested enums), function bodies are skipped wholesale (lambdas and
# local declarations stay inside their enclosing extent).
# --------------------------------------------------------------------------

@dataclass
class FunctionExtent:
    name: str       # unqualified ("flush", "Batcher", "~Batcher")
    qualifier: str  # "Network::Fanout" on out-of-line definitions, else ""
    cls: str        # owning class ("" for free functions)
    is_ctor: bool
    is_dtor: bool
    start: int      # offset of the (qualified) name token
    body_start: int  # offset of the body '{'
    body_end: int    # offset of the matching '}'

    def contains(self, offset: int) -> bool:
        """Offset is within the definition, *including* the parameter
        list and constructor init list (registrations there count as
        constructor-path)."""
        return self.start <= offset <= self.body_end

    def span(self) -> int:
        return self.body_end - self.start


@dataclass
class ClassExtent:
    name: str
    body_start: int
    body_end: int


@dataclass
class EnumDef:
    name: str
    cls: str  # enclosing class name, "" at namespace scope
    path: str
    line: int
    enumerators: list[str] = field(default_factory=list)


_HEAD_RE = re.compile(
    r"(?P<enum>\benum\s+(?:class\s+|struct\s+)?(?P<ename>[A-Za-z_]\w*))"
    r"|(?P<cls>\b(?:struct|class)\s+(?:\[\[[^\]]*\]\]\s*)?"
    r"(?P<cname>[A-Za-z_]\w*))"
    r"|(?P<func>(?P<fname>~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*\()"
)

#: Identifiers that look like `name(` but never open a function body.
_NOT_A_FUNCTION = frozenset(
    "if for while switch catch return sizeof alignof decltype noexcept "
    "static_assert new delete throw case default else do using typedef "
    "alignas assert".split()
)


def _match_bracket(code: str, open_idx: int) -> int:
    """Index of the ')' or ']' matching the bracket at open_idx."""
    pairs = {"(": ")", "[": "]"}
    close = pairs[code[open_idx]]
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == code[open_idx]:
            depth += 1
        elif code[i] == close:
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def _body_open(code: str, i: int, end: int):
    """Offset of the function-body '{' after a parameter list, or None
    when the construct is a declaration (`;`, `= default`, ...). Walks
    trailers (const/noexcept/override/-> type) and constructor init
    lists, including brace-init members (`: a_{1} {`)."""
    in_init = False
    while i < end:
        c = code[i]
        if c in " \t\n":
            i += 1
        elif c == ";":
            return None
        elif c == "{":
            if in_init:
                k = i - 1
                while k >= 0 and code[k] in " \t\n":
                    k -= 1
                if k >= 0 and (code[k].isalnum() or code[k] in "_>"):
                    i = matching_brace(code, i) + 1  # member brace-init
                    continue
            return i
        elif c == ":":
            if i + 1 < end and code[i + 1] == ":":
                i += 2
            else:
                in_init = True
                i += 1
        elif c in "([":
            i = _match_bracket(code, i) + 1
        elif c == "=":
            if not in_init:
                return None  # `= default`, `= delete`, `= 0`
            i += 1
        elif c == "-" and i + 1 < end and code[i + 1] == ">":
            i += 2  # trailing return type
        else:
            i += 1
    return None


def _class_body_open(code: str, i: int, end: int):
    """Offset of a class-head's body '{', or None for forward
    declarations / template parameters / base-class mentions."""
    depth = 0
    while i < end:
        c = code[i]
        if c in "(<[":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == ">":
            if depth == 0:
                return None  # `template <class T>`
            depth -= 1
        elif depth == 0:
            if c == "{":
                return i
            if c in ";=&*":
                return None  # fwd decl, `friend class X;`, `class X* p`
        i += 1
    return None


def scan_structure(
    sf: SourceFile,
) -> tuple[list[FunctionExtent], list[ClassExtent], list[EnumDef]]:
    functions: list[FunctionExtent] = []
    classes: list[ClassExtent] = []
    enum_defs: list[EnumDef] = []
    _scan_region(sf, 0, len(sf.code), "", functions, classes, enum_defs)
    return functions, classes, enum_defs


def _scan_region(sf, start, end, cls, functions, classes, enum_defs):
    code = sf.code
    i = start
    while i < end:
        m = _HEAD_RE.search(code, i, end)
        if not m:
            return
        if m.group("enum"):
            brace = _class_body_open(code, m.end(), end)
            if brace is None:
                i = m.end()
                continue
            body_end = matching_brace(code, brace)
            enum_defs.append(_parse_enum(sf, m.group("ename"), cls,
                                         m.start(), brace, body_end))
            i = body_end + 1
            continue
        if m.group("cls"):
            brace = _class_body_open(code, m.end(), end)
            if brace is None:
                i = m.end()
                continue
            body_end = matching_brace(code, brace)
            name = m.group("cname")
            classes.append(ClassExtent(name, brace, body_end))
            _scan_region(sf, brace + 1, body_end, name,
                         functions, classes, enum_defs)
            i = body_end + 1
            continue
        # Function-definition candidate.
        full = m.group("fname")
        parts = [p.strip() for p in full.split("::")]
        name = parts[-1]
        if name.lstrip("~") in _NOT_A_FUNCTION or parts[0] in _NOT_A_FUNCTION:
            i = m.end()
            continue
        close = _match_bracket(code, m.end() - 1)
        body = _body_open(code, close + 1, end)
        if body is None:
            i = close + 1
            continue
        body_end = matching_brace(code, body)
        qualifier = "::".join(parts[:-1])
        owner = parts[-2] if len(parts) >= 2 else cls
        functions.append(FunctionExtent(
            name=name, qualifier=qualifier, cls=owner,
            is_ctor=(owner != "" and name == owner),
            is_dtor=name.startswith("~"),
            start=m.start("fname"), body_start=body, body_end=body_end))
        i = body_end + 1


def _parse_enum(sf, name, cls, head_start, brace, body_end) -> EnumDef:
    body = sf.code[brace + 1 : body_end]
    enumerators = []
    depth = 0
    chunk_start = 0
    chunks = []
    for k, c in enumerate(body):
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        elif c == "," and depth == 0:
            chunks.append(body[chunk_start:k])
            chunk_start = k + 1
    chunks.append(body[chunk_start:])
    for chunk in chunks:
        em = re.match(r"\s*([A-Za-z_]\w*)", chunk)
        if em:
            enumerators.append(em.group(1))
    return EnumDef(name=name, cls=cls, path=sf.path,
                   line=sf.line_of(head_start), enumerators=enumerators)


def enclosing_function(functions: list[FunctionExtent], offset: int):
    """Innermost function extent containing `offset`, or None."""
    best = None
    for fn in functions:
        if fn.contains(offset) and (best is None or fn.span() < best.span()):
            best = fn
    return best


def in_class_body(classes: list[ClassExtent], offset: int):
    """Innermost class extent whose body contains `offset`, or None."""
    best = None
    for ce in classes:
        if ce.body_start < offset < ce.body_end and (
            best is None or (ce.body_end - ce.body_start)
            < (best.body_end - best.body_start)
        ):
            best = ce
    return best
