"""frontend_builtin.py -- clang-free source model extraction for astcheck.

The authoritative frontend is clang's JSON AST dump (frontend_clang.py),
but the repo must lint on toolchains that only ship GCC, and the ctest
`lint` label has to pass everywhere. This frontend rebuilds the same
acmodel.FileModel from a lexical parse that understands just enough C++:

  * comment/string stripping via lintkit.split_code_and_comment;
  * preprocessor lines (and their backslash continuations) are blanked so
    directive text never confuses brace tracking;
  * a brace classifier: every `{` at paren-depth 0 either opens a function
    body (its "head" -- the code since the last top-level `;`/`{`/`}` --
    names a function), or an opaque scope (namespace/class/initializer).
    Braces inside parentheses (default arguments) are ignored; nested
    braces inside a function body, lambdas included, stay part of that
    function's body;
  * per-function extraction of call sites, HP1-banned constructs, shift
    sites (template argument lists blanked first so `vector<vector<T>>`
    is not a shift), and pool subscripts.

Known blind spots, accepted on purpose: `#if`/`#else` branches with
unbalanced braces can over-extend a body, and macro-generated functions
are invisible. The clang frontend has neither problem; CI runs it.
"""

from __future__ import annotations

import re

import lintkit
from acmodel import CallSite, Construct, FileModel, FunctionInfo, ShiftSite, SubscriptSite

# ---------------------------------------------------------------------------
# head classification

# Names that can precede '(' in a head without being the function name.
HEAD_SKIP = frozenset(
    {
        "if", "for", "while", "switch", "do", "else", "return", "catch",
        "case", "goto", "new", "delete", "throw", "sizeof", "alignof",
        "decltype", "noexcept", "requires", "static_assert", "assert",
        "alignas", "defined", "using", "typedef", "template", "public",
        "private", "protected", "__attribute__", "__declspec",
    }
)

NAME_RE = re.compile(r"(~?[A-Za-z_]\w*)\s*\(")
OPERATOR_RE = re.compile(r"\boperator\s*(\(\s*\)|\[\s*\]|[<>!=+\-*/%&|^~=]{1,3}|\bnew\b|\bdelete\b)")
CONTAINER_RE = re.compile(r"(?:^|[^\w:])(namespace|class|struct|union|enum)\b")


def _top_level_positions(text, ch):
    """Positions of `ch` in `text` at paren/bracket depth 0."""
    out, depth = [], 0
    for i, c in enumerate(text):
        if c in "([":
            depth += 1
        elif c in ")]":
            depth = max(0, depth - 1)
        elif c == ch and depth == 0:
            out.append(i)
    return out


def _blank_template_prefix(head):
    """Blanks `template <...>` parameter lists (angle-depth aware) so their
    default arguments (`bool SoftPopcount = false`) are not mistaken for a
    top-level initializer `=`."""
    out = head
    for m in re.finditer(r"\btemplate\s*<", head):
        depth, paren, i = 1, 0, m.end()
        while i < len(head) and depth:
            c = head[i]
            if c == "(":
                paren += 1
            elif c == ")":
                paren = max(0, paren - 1)
            elif paren == 0 and c == "<":
                depth += 1
            elif paren == 0 and c == ">":
                depth -= 1
            i += 1
        out = out[: m.start()] + " " * (i - m.start()) + out[i:]
    return out


def head_function_name(head):
    """The function name a head declares, or None when the head is not a
    function definition head (namespace, class, initializer, control)."""
    if "(" not in head:
        return None
    head = _blank_template_prefix(head)
    # operator overloads first: `operator[](...)` / `operator()(...)` would
    # otherwise be skipped ("operator" is not the callable name token).
    om = OPERATOR_RE.search(head)
    if om is not None and "(" in head[om.end():] + ("(" if om.group(1).strip().startswith("(") else ""):
        return "operator" + "".join(om.group(1).split())
    # A top-level `=` means initialization (`auto k = ...{`), not a
    # definition head; `operator=` was already handled above.
    for pos in _top_level_positions(head, "="):
        prev = head[pos - 1] if pos > 0 else ""
        nxt = head[pos + 1] if pos + 1 < len(head) else ""
        if prev in "=!<>+-*/%&|^" or nxt == "=":
            continue  # comparison / compound-assign fragment
        return None
    # First identifier followed by a depth-0 '(' that is not a known
    # keyword/macro is the declared name (ctor init-lists come later and
    # are never first).
    depth = 0
    for m in NAME_RE.finditer(head):
        seg = head[: m.start(1)]
        depth = seg.count("(") + seg.count("[") - seg.count(")") - seg.count("]")
        if depth != 0:
            continue
        name = m.group(1)
        if name in HEAD_SKIP or name.startswith("POPTRIE_"):
            continue
        return name
    return None


def head_is_container(head):
    """namespace/class/struct/union/enum heads open scopes that may hold
    functions but are not functions themselves. The template prefix is
    blanked first so `template <class Addr> void f()` is not mistaken for
    a class head (while `template <class T> class Foo` still is one)."""
    return CONTAINER_RE.search(_blank_template_prefix(head)) is not None


# ---------------------------------------------------------------------------
# annotation discovery (shared with the clang frontend, which detects
# hotness lexically too -- clang's AnnotateAttr JSON omits the annotation
# string in some versions, and the macro spelling is what the tree uses)

HOT_RE = re.compile(r"\bPOPTRIE_HOT\b|poptrie::hot\b")
EXEMPT_RE = re.compile(r"\bPOPTRIE_HOT_EXEMPT\b|poptrie::hot_exempt\b")
JUSTIFY_RE = re.compile(r"hot-exempt:")


def annotate_function(fn, raw_lines, comments):
    """Sets hot/exempt/exempt_justified from the head's raw text (the
    annotate attribute string lives inside a string literal, which the
    stripper blanks, so raw lines are consulted) and the comment window:
    the justification may sit up to 2 lines above the head or anywhere in
    the head itself."""
    lo, hi = fn.line - 1, max(fn.line, fn.body_open)
    head_raw = "\n".join(raw_lines[lo:hi])
    fn.exempt = EXEMPT_RE.search(head_raw) is not None
    fn.hot = not fn.exempt and HOT_RE.search(head_raw) is not None
    window = comments[max(0, lo - 2): hi]
    fn.exempt_justified = any(JUSTIFY_RE.search(c) for c in window)


# ---------------------------------------------------------------------------
# body extraction: calls, constructs, shifts, subscripts

CALL_RE = re.compile(r"(~?[A-Za-z_]\w*)\s*\(")
CALL_SKIP = HEAD_SKIP | {"operator"}

BANNED_CALLS = {
    # kind, why
    "malloc": ("alloc", "C heap allocation"),
    "calloc": ("alloc", "C heap allocation"),
    "realloc": ("alloc", "C heap allocation"),
    "free": ("alloc", "C heap release"),
    "posix_memalign": ("alloc", "aligned heap allocation"),
    "aligned_alloc": ("alloc", "aligned heap allocation"),
    "strdup": ("alloc", "allocating string copy"),
    "make_unique": ("alloc", "heap allocation"),
    "make_shared": ("alloc", "heap allocation"),
    "push_back": ("alloc", "container growth may reallocate"),
    "emplace_back": ("alloc", "container growth may reallocate"),
    "emplace": ("alloc", "container growth may reallocate"),
    "resize": ("alloc", "container resize may reallocate"),
    "reserve": ("alloc", "container reserve reallocates"),
    "shrink_to_fit": ("alloc", "container reallocation"),
    "lock": ("lock", "blocking mutex acquire"),
    "unlock": ("lock", "mutex release implies a lock was taken"),
    "try_lock": ("lock", "mutex acquire attempt"),
    "lock_shared": ("lock", "blocking shared-mutex acquire"),
    "mmap": ("syscall", "memory-mapping syscall"),
    "munmap": ("syscall", "memory-mapping syscall"),
    "madvise": ("syscall", "memory-advise syscall"),
    "ioctl": ("syscall", "device syscall"),
    "poll": ("syscall", "blocking syscall"),
    "select": ("syscall", "blocking syscall"),
    "epoll_wait": ("syscall", "blocking syscall"),
    "usleep": ("syscall", "sleeping syscall"),
    "nanosleep": ("syscall", "sleeping syscall"),
    "sleep_for": ("syscall", "thread sleep"),
    "sleep_until": ("syscall", "thread sleep"),
    "yield": ("syscall", "scheduler yield"),
    # A feature probe or environment read inside a hot function means the
    # per-burst path is re-deciding its kernel on every call; any such
    # choice belongs outside the burst.
    "getenv": ("dispatch", "environment lookup; resolve configuration once, outside the burst"),
    "__builtin_cpu_supports": ("dispatch", "runtime CPUID feature probe; resolve the batch kernel once at image load"),
    "__builtin_cpu_is": ("dispatch", "runtime CPUID feature probe; resolve the batch kernel once at image load"),
    "__get_cpuid": ("dispatch", "runtime CPUID probe; resolve the batch kernel once at image load"),
    "__get_cpuid_count": ("dispatch", "runtime CPUID probe; resolve the batch kernel once at image load"),
    "printf": ("io", "stdio output"),
    "fprintf": ("io", "stdio output"),
    "snprintf": ("io", "stdio formatting"),
    "puts": ("io", "stdio output"),
    "fwrite": ("io", "stdio output"),
    "fopen": ("io", "file open"),
    "perror": ("io", "stdio output"),
}

NEW_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")  # `= delete`-safe; skip none
DELETE_RE = re.compile(r"(?<![\w.])delete(\s*\[\s*\])?\b")
THROW_RE = re.compile(r"\bthrow\b")
IO_TOKEN_RE = re.compile(r"\bstd\s*::\s*(cout|cerr|clog|cin|endl)\b")
LOCK_TOKEN_RE = re.compile(r"\b(?:std\s*::\s*)?(lock_guard|unique_lock|scoped_lock|shared_lock|MutexLock)\b")


def extract_constructs(code, lineno, out):
    m = NEW_RE.search(code)
    if m and not re.search(r"operator\s*$", code[: m.start()]):
        out.append(Construct("alloc", lineno, "new", "heap allocation (new expression)"))
    m = DELETE_RE.search(code)
    if m and not re.search(r"[=(,]\s*$", code[: m.start()]) and not re.search(r"operator\s*$", code[: m.start()]):
        # `= delete;` declarations and `operator delete` are not statements.
        out.append(Construct("alloc", lineno, "delete", "heap release (delete expression)"))
    if THROW_RE.search(code):
        out.append(Construct("throw", lineno, "throw", "throwing construct"))
    m = IO_TOKEN_RE.search(code)
    if m:
        out.append(Construct("io", lineno, m.group(0), "iostream on the hot path"))
    m = LOCK_TOKEN_RE.search(code)
    if m:
        out.append(Construct("lock", lineno, m.group(1), "scoped lock acquisition"))


CAST_NAMES = frozenset({"static_cast", "dynamic_cast", "reinterpret_cast", "const_cast"})


def extract_calls(code, lineno, out, constructs):
    # Blank template argument lists first so `make_unique<int>(` is seen
    # as a call to make_unique.
    for m in CALL_RE.finditer(blank_templates(code)):
        name = m.group(1)
        if name in CALL_SKIP or name in CAST_NAMES or name.startswith("POPTRIE_"):
            continue
        prev = code[: m.start(1)].rstrip()
        if prev.endswith("]"):  # arr[i](
            continue
        out.append(CallSite(name, lineno))
        if name in BANNED_CALLS:
            kind, why = BANNED_CALLS[name]
            constructs.append(Construct(kind, lineno, name + "()", why))


# -- shifts -----------------------------------------------------------------

TMPL_RE = re.compile(r"(?<=[\w,])<([^<>;{}!?&|()=]|<[^<>]*>)*>(?=[\s>:)(&,;*\w{])")
SHIFT_RE = re.compile(r"(<<|>>)=?")
STREAM_NAME_RE = re.compile(r"(?:^|[^\w])(\w*(?:cout|cerr|clog|os|oss|out|stream|ss|log))\s*$")
EXPR_STOP = "&|^<>=!?:,;"


def blank_templates(s):
    """Blanks template argument lists so `>>` closers are not shifts.
    Conservative: only angle groups whose content looks type-ish."""
    prev = None
    while prev != s:
        prev = s
        s = TMPL_RE.sub(lambda m: " " * len(m.group(0)), s)
    return s


def _count_expr(text):
    """The shift-count expression starting at `text` (just after the
    operator): consumed until a depth-0 stop token or closing bracket."""
    depth = 0
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "([":
            depth += 1
        elif c in ")]}":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and c in EXPR_STOP:
            break
        out.append(c)
        i += 1
    return "".join(out).strip()


def _lhs_is_stream(before, file_code_text):
    m = STREAM_NAME_RE.search(before.rstrip())
    if m is None:
        return False
    tok = m.group(1)
    if tok in ("cout", "cerr", "clog") or tok.endswith(("cout", "cerr", "clog")):
        return True
    return re.search(r"\b\w*(?:stream|ostream)\b[^;\n]*\b" + re.escape(tok) + r"\b", file_code_text) is not None


def extract_shifts(code, lineno, out, file_code_text):
    blanked = blank_templates(code)
    stream_line = False
    for m in SHIFT_RE.finditer(blanked):
        op = m.group(0)
        before = blanked[: m.start()]
        after = blanked[m.end():]
        if re.search(r"operator\s*$", before):
            continue
        if m.start() > 0 and blanked[m.start() - 1] in "<>":
            continue  # <<< / >>> fragment
        if op.startswith(">>"):
            # Unblanked template closer: more '<' than '>' opened before it.
            if before.count("<") - 2 * before.count("<<") > before.count(">") - 2 * before.count(">>"):
                continue
        if _lhs_is_stream(before, file_code_text):
            stream_line = True  # stream insert/extract chain, not a shift
        if stream_line:
            continue  # chained stream inserts/extracts on this line
        count = _count_expr(after)
        if not count:
            continue
        out.append(ShiftSite(lineno, op, count))


# -- pool subscripts --------------------------------------------------------

POOL_RE = re.compile(r"\b(nodes_|leaves_|direct_)\s*\[")


def extract_subscripts(code, lineno, out):
    for m in POOL_RE.finditer(code):
        depth = 1
        i = m.end()
        start = i
        while i < len(code) and depth:
            if code[i] == "[":
                depth += 1
            elif code[i] == "]":
                depth -= 1
            i += 1
        out.append(SubscriptSite(lineno, m.group(1), code[start: i - 1].strip()))


# ---------------------------------------------------------------------------
# the scope machine

def parse_source(raw_lines, path, rel):
    code, comments = lintkit.split_code_and_comment(raw_lines)

    # Blank preprocessor directives (with continuations) before scanning.
    pcode, in_pre = [], False
    for c in code:
        if in_pre or c.lstrip().startswith("#"):
            in_pre = c.rstrip().endswith("\\")
            pcode.append("")
        else:
            in_pre = False
            pcode.append(c)

    model = FileModel(path=path, rel=rel, comments=comments, code=pcode)

    scope = []  # list of FunctionInfo-or-None, one per open brace
    active_fn = None
    head_parts = []  # [(lineno, chars)]
    head_first = None
    paren = 0
    init_depth = 0  # inside a ctor-member-initializer braced init
    CTOR_INIT_PENDING = re.compile(r"\)\s*:")
    HEAD_TAIL_IDENT = re.compile(r"[\w>]\s*$")

    def reset_head():
        nonlocal head_parts, head_first
        head_parts, head_first = [], None

    for idx, line in enumerate(pcode):
        lineno = idx + 1
        body_buf = []
        line_chars = []
        for ch in line:
            if active_fn is not None:
                body_buf.append(ch)
            if ch == "(":
                paren += 1
            elif ch == ")":
                paren = max(0, paren - 1)
            if paren > 0 or ch not in "{};":
                line_chars.append(ch)
                continue
            # scope-affecting char at paren depth 0
            if line_chars:
                if head_first is None:
                    head_first = lineno
                head_parts.append((lineno, "".join(line_chars)))
                line_chars = []
            if ch == "{":
                if active_fn is not None:
                    scope.append(None)  # nested block of the same body
                else:
                    head = " ".join(t for _ln, t in head_parts).strip()
                    # `Ctor() : member_{...}` -- the brace after a pending
                    # member name is an initializer, not a body; keep the
                    # head alive until the real body brace (which follows
                    # a `}` or `)`).
                    if CTOR_INIT_PENDING.search(head) and HEAD_TAIL_IDENT.search(head):
                        init_depth += 1
                        head_parts.append((lineno, "{"))
                        continue
                    name = None
                    if head and not head_is_container(head):
                        name = head_function_name(head)
                    if name is not None:
                        fn = FunctionInfo(name=name, line=head_first or lineno, body_open=lineno, head=head)
                        scope.append(fn)
                        active_fn = fn
                        body_buf = []  # body starts after this brace
                    else:
                        scope.append(None)
                reset_head()
            elif ch == "}":
                if init_depth > 0:
                    init_depth -= 1
                    head_parts.append((lineno, "}"))
                    continue
                top = scope.pop() if scope else None
                if top is not None:
                    top.end_line = lineno
                    if body_buf and body_buf[-1] == "}":
                        body_buf.pop()  # the function's own closer
                    text = "".join(body_buf)
                    if text.strip():
                        top.body.append((lineno, text))
                    body_buf = []
                    model.functions.append(top)
                    active_fn = None
                reset_head()
            else:  # ';'
                init_depth = 0  # defensive: a ';' ends any initializer
                reset_head()
        if line_chars and line_chars != [" "] * len(line_chars):
            text = "".join(line_chars)
            if text.strip():
                if head_first is None and active_fn is None:
                    head_first = lineno
                if active_fn is None:
                    head_parts.append((lineno, text))
        if active_fn is not None and body_buf:
            text = "".join(body_buf)
            if text.strip():
                active_fn.body.append((lineno, text))
    # Unclosed scopes at EOF (unbalanced #if branches): finalize anyway.
    while scope:
        top = scope.pop()
        if top is not None:
            top.end_line = len(pcode)
            model.functions.append(top)

    file_code_text = "\n".join(pcode)
    fn_lines = {}
    for fn in model.functions:
        annotate_function(fn, raw_lines, comments)
        for ln, text in fn.body:
            extract_constructs(text, ln, fn.constructs)
            extract_calls(text, ln, fn.calls, fn.constructs)
            extract_shifts(text, ln, fn.shifts, file_code_text)
            extract_subscripts(text, ln, fn.subscripts)
            fn_lines[ln] = fn
    # Shifts outside any function (namespace-scope constants).
    for idx, text in enumerate(pcode):
        ln = idx + 1
        if ln in fn_lines or not text.strip():
            continue
        extract_shifts(text, ln, model.toplevel_shifts, file_code_text)
    return model


def parse_file(path, rel):
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read().splitlines()
    return parse_source(raw, path, rel)


def parse_tree(source_root, subdirs=("src",)):
    """FileModels for every source file under the given subdirs."""
    return [parse_file(p, rel) for p, rel in lintkit.walk_sources(source_root, subdirs)]
