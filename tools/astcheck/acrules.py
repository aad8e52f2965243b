"""acrules.py -- the three astcheck rule families over acmodel.FileModel.

HP1 hot-path purity: functions tagged poptrie::hot (POPTRIE_HOT) must not
    transitively reach heap allocation, locks, throwing constructs,
    syscalls, iostream, or runtime kernel-dispatch probes (CPUID feature
    tests, getenv — a per-burst path must not re-decide its code path on
    every call; any such choice belongs outside the burst). The call graph
    is walked per file/TU from every
    hot root; calls resolve to same-model definitions (the clang frontend
    feeds per-TU models, so cross-header edges resolve there). Exempt
    callees (poptrie::hot_exempt) stop the walk, but an exemption without
    a `hot-exempt:` justification comment is itself a finding.

HP2 shift-width safety: every shift whose count is not provably < the
    operand bit-width is flagged. "Provably" means: a literal/constant
    expression below the width, a dominating mask (& 63, % 64, & kMask),
    a bounding for-loop or guard (`if (off >= kWidth) return`), or a count
    variable whose every assignment flows from a bounded producer such as
    chunk()/popcount(). `// shift-ok: <why>` (same line or the two above)
    vouches for anything the prover cannot see.

HP3 pool-index provenance: inside hot functions, indices into the Poptrie
    pools (nodes_/leaves_/direct_) must flow from the popcount accessors
    -- base+popcount chains, extract(), chunk(), load_acquire() -- never
    raw arithmetic. A local-variable fixpoint tracks provenance through
    assignments; `// index-ok: <why>` vouches for the rest.

`// astcheck: allow` (same line or the two above) is the last-resort
escape hatch for all three families, mirroring check-atomics: allow.

Findings are (path, lineno, message) tuples, lintkit.report-compatible.
"""

from __future__ import annotations

import re

import lintkit

LOOKBACK = 2
ALLOW_RE = re.compile(r"astcheck:\s*allow")
SHIFT_OK_RE = re.compile(r"shift-ok:")
INDEX_OK_RE = re.compile(r"index-ok:")

HP2_DIR_PREFIXES = ("src/poptrie", "src/netbase")


_CONTINUATION_HEAD_RE = re.compile(r"^\s*(<<|>>|\?|:[^:]|\)|,|&&|\|\||\.|->)")


def _stmt_start(fm, lineno):
    """First line of the statement containing `lineno`: walks up while the
    previous code line is a continuation (non-blank and not ended by one of
    `;{}`), so a justification comment above a multi-line expression reaches
    every line of it. A `}`-ended previous line is still a continuation when
    the current line opens with a token that cannot begin a statement (the
    brace was a braced-init like `value_type{0}`, not a block close)."""
    start = lineno
    while start > 1:
        prev = fm.code[start - 2].rstrip()
        if not prev.strip() or prev.endswith((";", "{")):
            break
        if prev.endswith("}") and not _CONTINUATION_HEAD_RE.match(fm.code[start - 1]):
            break
        start -= 1
    return start


def _allowed(fm, lineno, extra_re=None):
    # Anchor the lookback window at both the site line (trailing comments)
    # and the start of its statement (comments above a multi-line expression).
    anchors = {lineno - 1, _stmt_start(fm, lineno) - 1}
    for regex in (ALLOW_RE,) + ((extra_re,) if extra_re is not None else ()):
        if any(lintkit.marker_in_window(fm.comments, idx, LOOKBACK, regex) for idx in anchors):
            return True
    return False


# ---------------------------------------------------------------------------
# HP1

def check_hp1(fm, findings):
    idx = fm.function_index()
    for fn in fm.functions:
        if fn.exempt and not fn.exempt_justified and not _allowed(fm, fn.line):
            findings.append(
                (
                    fm.path,
                    fn.line,
                    f"[HP1] '{fn.name}' is marked poptrie::hot_exempt without a "
                    "'// hot-exempt: <why>' justification comment (head or the "
                    "two lines above); the exemption IS the place to say why",
                )
            )
    reported = set()
    for root in fm.functions:
        if not root.hot:
            continue
        visited = {id(root)}
        stack = [(root, (root.name,))]
        while stack:
            fn, trail = stack.pop()
            for c in fn.constructs:
                if _allowed(fm, c.line):
                    continue
                key = (c.line, c.token)
                if key in reported:
                    continue
                reported.add(key)
                via = "" if fn is root else f" via call path {' -> '.join(trail)}"
                findings.append(
                    (
                        fm.path,
                        c.line,
                        f"[HP1] hot function '{root.name}' reaches {c.why} "
                        f"('{c.token}'){via}; the lookup path must stay free of "
                        "allocation/locks/throw/syscalls/io/dispatch probes -- "
                        "hoist it out, or mark the callee POPTRIE_HOT_EXEMPT "
                        "with a 'hot-exempt:' justification",
                    )
                )
            for call in fn.calls:
                for callee in idx.get(call.name, ()):
                    if id(callee) in visited:
                        continue
                    visited.add(id(callee))
                    if callee.exempt:
                        continue  # justified-or-not handled above
                    stack.append((callee, trail + (callee.name,)))


# ---------------------------------------------------------------------------
# HP2

CONST_TOKEN_RE = re.compile(r"^(?:k[A-Z]\w*|[A-Z][A-Z0-9_]+|sizeof|alignof|std|numeric_limits|digits|CHAR_BIT|true|false|u?int(?:8|16|32|64|128)_t|size_t|uint|unsigned|int|long|char|short|bool|auto|const|constexpr|static_cast|uint64|uint32)$")
INT_LIT_RE = re.compile(r"\b(0[xX][0-9a-fA-F']+|\d[\d']*)(?:[uUlLzZ]*)\b")
IDENT_RE = re.compile(r"\b[A-Za-z_]\w*\b")
MASK_AND_RE = re.compile(r"&\s*(0[xX][0-9a-fA-F']+|\d+)\b")
MASK_NAME_RE = re.compile(r"[&%]\s*k\w*[Mm]ask\b|&\s*\(\s*k\w+\s*-\s*1\s*\)|&\s*\w*[Mm]ask\w*\b")
MOD_RE = re.compile(r"%\s*(\d+)\b")
BOUNDED_PRODUCER_RE = re.compile(r"\bchunk\s*\(|\bpopcount\w*\s*\(|\bcount_leading_zeros\s*\(|\bcount_trailing_zeros\s*\(|\bctz\w*\s*\(|\bclz\w*\s*\(|&\s*(?:0[xX][0-9a-fA-F']+|\d+)|%\s*\d+")


def _int_value(tok):
    t = tok.replace("'", "").rstrip("uUlLzZ")
    try:
        return int(t, 0)
    except ValueError:
        return None


def _strip_parens(expr):
    expr = expr.strip()
    while expr.startswith("(") and expr.endswith(")"):
        depth = 0
        for i, c in enumerate(expr):
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0 and i != len(expr) - 1:
                    return expr
        expr = expr[1:-1].strip()
    return expr


def _expr_idents(expr):
    return [t for t in IDENT_RE.findall(expr) if not CONST_TOKEN_RE.match(t) and _int_value(t) is None]


def _mask_bounds(expr, width):
    m = MASK_AND_RE.search(expr)
    if m:
        v = _int_value(m.group(1))
        if v is not None and v < width and (v + 1) & v == 0:
            return True
    m = MOD_RE.search(expr)
    if m and int(m.group(1)) <= width:
        return True
    return MASK_NAME_RE.search(expr) is not None


def _var_bounded(var, fn, site_line, width):
    body = fn.body
    # (a) bounding for-loop: for (... var = LIT; var < BOUND; ...)
    for _ln, text in body:
        m = re.search(rf"for\s*\(\s*(?:[\w:<>,\s]+\s)?{re.escape(var)}\s*=\s*(\w+)\s*;[^;]*\b{re.escape(var)}\s*<=?\s*([^;]+);", text)
        if m:
            init, bound = _int_value(m.group(1)), m.group(2).strip()
            bv = _int_value(bound)
            if (init is not None) and (bv is not None and bv <= width or not _expr_idents(bound)):
                return True
    # (b) dominating guard before the shift site
    guarded_next = 0
    for ln, text in body:
        if ln >= site_line:
            break
        if guarded_next and re.search(r"\b(return|continue|break|goto)\b", text):
            return True
        guarded_next = max(0, guarded_next - 1)
        g = re.search(rf"if\s*\(\s*{re.escape(var)}\s*>=\s*[\w:().\s]+\)", text)
        if g:
            rest = text[g.end():]
            if re.search(r"\b(return|continue|break|goto)\b", rest):
                return True
            guarded_next = 2  # the early-out may sit on the next lines
        if re.search(rf"\bassert\s*\(\s*{re.escape(var)}\s*<=?\s*", text):
            return True
    # (c) every assignment flows from a bounded producer
    assigns = []
    joined = " ".join(t for _ln, t in body).split(";")
    for stmt in joined:
        for m in re.finditer(rf"(?<![\w.]){re.escape(var)}\s*=(?![=])\s*(.+)", stmt):
            assigns.append(m.group(1))
    if assigns and all(BOUNDED_PRODUCER_RE.search(rhs) or not _expr_idents(rhs) and _all_literals_below(rhs, width) for rhs in assigns):
        return True
    return False


def _all_literals_below(expr, width):
    vals = [_int_value(t) for t in INT_LIT_RE.findall(expr)]
    return all(v is None or v < width for v in vals)


def _classify_shift(site, fn, fm):
    """Returns None when provably safe, else the reason string."""
    expr = _strip_parens(site.count)
    width = site.width
    idents = _expr_idents(expr)
    if not idents:
        lit = _int_value(expr)
        if lit is not None and lit >= width:
            return f"literal shift count {lit} >= operand width {width}"
        return None  # literal/constant arithmetic below width
    if _mask_bounds(expr, width):
        return None
    if all(CONST_TOKEN_RE.match(t) for t in IDENT_RE.findall(expr)):
        return None
    if fn is not None and all(_var_bounded(v, fn, site.line, width) for v in idents):
        return None
    return f"count '{expr}' is not provably < operand width {width}"


def check_hp2(fm, findings, in_scope_file):
    def visit(shifts, fn):
        for s in shifts:
            if _allowed(fm, s.line, SHIFT_OK_RE):
                continue
            reason = _classify_shift(s, fn, fm)
            if reason is not None:
                findings.append(
                    (
                        fm.path,
                        s.line,
                        f"[HP2] '{s.op}' {reason}: bound it with a mask (& {s.width - 1}), "
                        "a % modulo, a dominating guard, a bounded producer such as "
                        "chunk()/popcount(), or vouch with '// shift-ok: <why>'",
                    )
                )

    for fn in fm.functions:
        if in_scope_file or fn.hot:
            visit(fn.shifts, fn)
    if in_scope_file:
        visit(fm.toplevel_shifts, None)


# ---------------------------------------------------------------------------
# HP3

SANCTIONED_MARK_RE = re.compile(
    r"\bpopcount\w*\s*\(|(?<![\w.])pop\s*\(|\bload_acquire\b|\bload_relaxed\b"
    r"|\bextract\s*[<(]|\bchunk\s*\(|\bbase0\b|\bbase1\b|\broot_\b"
    r"|\bold_child_index\s*\(|\bold_leaf_value\s*\(|\bdirect_index\s*\("
)
ASSIGN_RE = re.compile(r"(?:^|[;{}(\s])((?:\w+\s+)*)([A-Za-z_]\w*)(\s*\[[^\]]*\])?\s*(=|\+=|\|=|&=|\^=)(?![=])\s*([^;]+)")
HP3_IGNORED_IDENTS = frozenset({"std", "size_t", "size", "data", "get", "first", "second"})


def _statements(fn):
    """Body text re-joined into `;`-separated statements, so assignments
    whose right-hand side wraps across lines stay whole."""
    return fn.body_text().replace("\n", " ").split(";")


def _sanctioned_vars(fn):
    assigns = []
    for stmt in _statements(fn):
        for m in ASSIGN_RE.finditer(stmt + ";"):
            assigns.append((m.group(2), m.group(5)))
    sanctioned = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in assigns:
            if lhs in sanctioned:
                continue
            if SANCTIONED_MARK_RE.search(rhs):
                sanctioned.add(lhs)
                changed = True
                continue
            idents = _expr_idents(rhs)
            if idents and all(i in sanctioned or i in HP3_IGNORED_IDENTS for i in idents):
                sanctioned.add(lhs)
                changed = True
    return sanctioned


def _index_ok(expr, sanctioned):
    if SANCTIONED_MARK_RE.search(expr):
        return True
    # `index[l]`: the pool index is the *value* of the sanctioned array
    # `index`; the inner subscript (a lane counter) indexes the local
    # array, not the pool. Drop such groups when their base is sanctioned.
    prev = None
    while prev != expr:
        prev = expr
        expr = re.sub(
            r"\b(" + "|".join(re.escape(s) for s in sanctioned) + r")\s*\[[^\][]*\]" if sanctioned else r"$^",
            " ",
            expr,
        )
    idents = _expr_idents(expr)
    if not idents:
        return True  # constant index (root slot, literal probe)
    return all(i in sanctioned or i in HP3_IGNORED_IDENTS for i in idents)


def check_hp3(fm, findings):
    for fn in fm.functions:
        if not fn.hot:
            continue
        sanctioned = _sanctioned_vars(fn)
        for sub in fn.subscripts:
            if _allowed(fm, sub.line, INDEX_OK_RE):
                continue
            if _index_ok(sub.index, sanctioned):
                continue
            findings.append(
                (
                    fm.path,
                    sub.line,
                    f"[HP3] index '{sub.index}' into {sub.array}[] does not flow "
                    "from the popcount accessors (base0/base1 + popcount, extract(), "
                    "chunk(), load_acquire()); pool indices must carry provenance, "
                    "or vouch with '// index-ok: <why>'",
                )
            )


# ---------------------------------------------------------------------------

def _hp2_in_scope(rel):
    norm = rel.replace("\\", "/")
    return any(norm == p or norm.startswith(p + "/") for p in HP2_DIR_PREFIXES)


def check_all(models):
    """Runs all three families; returns lintkit.report-compatible findings
    sorted by (path, line)."""
    findings = []
    for fm in models:
        check_hp1(fm, findings)
        check_hp2(fm, findings, _hp2_in_scope(fm.rel))
        check_hp3(fm, findings)
    findings.sort(key=lambda v: (v[0], v[1]))
    return findings
