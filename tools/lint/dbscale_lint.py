#!/usr/bin/env python3
"""dbscale custom invariant linter — token-stream semantic engine.

Enforces repo-specific rules that clang-tidy cannot express. Unlike a
line-regex matcher, every rule here operates on a real C++ token stream
with a recovered scope/function model (tools/lint/cpptok.py): multi-line
expressions, raw strings containing code-looking text, interior comments,
and preprocessor continuations are all seen for what they are.

Rules:

  wall-clock         No wall-clock time or non-deterministic randomness
                     outside src/common/rng.* and src/common/sim_time.*.
  unordered-container
                     No std::unordered_{map,set,multimap,multiset} in
                     merge/report/fleet/obs/fault paths — iteration order
                     is implementation-defined.
  alloc-hot-path     No allocation (new/make_unique/make_shared/malloc),
                     container growth (resize/reserve), fresh container
                     locals, or by-value container parameters inside hot
                     regions. Hot regions are function-granular: every
                     function in a HOT_PATH_FILES file (file-level
                     default), plus any function annotated `// dbscale-hot`
                     on or directly above its signature, anywhere in
                     src/ or tests/. Reference bindings into preallocated
                     scratch (`std::vector<double>& v = scratch.buf;`)
                     are classified scratch-bound and not flagged.
  float-equality     No ==/!= against floating-point literals in
                     src/scaler/ or src/fleet/ — even split across lines.
  discarded-status   A `(void)` cast of a call expression (the only way
                     to mute [[nodiscard]]) must carry an annotation —
                     interior comments and line breaks do not hide it.
  nodiscard-guard    src/common/status.h and src/common/result.h keep
                     their class-level [[nodiscard]] attributes.
  pointer-key-container
                     No std::{map,set,multimap,multiset} keyed on a
                     pointer type in order-sensitive paths: iteration
                     order is address order, which varies run to run.
  mutable-global     No mutable namespace-scope state in src/ outside
                     src/common/ — hidden globals break run-to-run and
                     thread-count determinism. constexpr/const objects
                     (with a const *pointer*, not just pointee) are fine.
  nodiscard-status-fn
                     Free functions returning Status/Result<T> must be
                     [[nodiscard]] — headers always; in .cc files those
                     with internal linkage (static / anonymous
                     namespace), where the definition is the only
                     declaration the attribute could live on.
  options-validate   Entry-point functions (constructors, Run/Resume/
                     Init/Start, Make*/Create*/Open*) taking a
                     *Options struct that defines `Status Validate()`
                     must call Validate() in their body, or carry an
                     annotation saying where validation happens.

Suppression: `// dbscale-lint: allow(<rule>)` on the offending line or
alone on the line above; `// dbscale-lint: allow-file(<rule>)` anywhere
in the first 15 lines. Hot-function annotation: `// dbscale-hot` on or
directly above a function signature.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cpptok  # noqa: E402
from cpptok import CHAR, ID, NUM, PUNCT, STR  # noqa: E402,F401

# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------

# File-level hot defaults: every function in these files is hot. The
# `// dbscale-hot` annotation extends the same enforcement to individual
# functions in any other file.
HOT_PATH_FILES = (
    "src/telemetry/manager.cc",
    "src/stats/robust.cc",
    "src/stats/theil_sen.cc",
    "src/stats/spearman.cc",
    "src/stats/cdf.cc",
    "src/sim/report.cc",
    # Observability record paths: metric shard writes and span capture run
    # once per billing interval (per tenant in the fleet) and must stay
    # allocation-free in steady state.
    "src/obs/metrics.cc",
    "src/obs/trace.cc",
    # Fault-injection draws run per sample (telemetry faults) and per
    # interval (resize actuation); both sit inside the simulation hot loop.
    "src/fault/fault_plan.cc",
    "src/fault/actuator.cc",
)

ORDER_SENSITIVE_PREFIXES = (
    "src/fleet/",
    "src/sim/",
    "src/telemetry/",
    "src/obs/",
    # Fault streams are forked from the deterministic per-tenant RNG; any
    # unordered reduction or wall-clock leak breaks bit-identical replay.
    "src/fault/",
    # Service-mode decisions must be digest-identical to sim-loop decisions
    # at any producer/thread count; unordered containers or clock reads in
    # the drain/evaluate path would break that equivalence.
    "src/ingest/",
    # Placement scans, migration state, and interference folds feed the
    # host digest; iteration order over hosts/tenants must be fixed.
    "src/host/",
    # The diagonal optimizer's branch-and-bound must visit candidates in a
    # fixed order: ties break toward the first candidate found, so any
    # unordered traversal (or clock/RNG leak) changes which bundle wins and
    # moves every pinned digest downstream.
    "src/scaler/diagonal",
    # Event order and RNG draw order feed every sim pin: the engine's
    # (when, seq) heap and its components, and the generator's arrivals.
    "src/engine/",
    "src/workload/",
)

NODISCARD_GUARDS = {
    "src/common/status.h": "Status",
    "src/common/result.h": "Result",
}

ALLOW_RE = re.compile(r"dbscale-lint:\s*allow\(([\w,\s-]+)\)")
ALLOW_FILE_RE = re.compile(r"dbscale-lint:\s*allow-file\(([\w,\s-]+)\)")
HOT_RE = re.compile(r"//\s*dbscale-hot\b(?!-)")

_CLOCK_IDS = {"random_device", "system_clock", "steady_clock",
              "high_resolution_clock"}
_UNORDERED = {"unordered_map", "unordered_set", "unordered_multimap",
              "unordered_multiset"}
_ORDERED_ASSOC = {"map", "set", "multimap", "multiset"}
_FRESH_CONTAINERS = {"vector", "deque", "map", "set", "string"}
_BYVAL_CONTAINERS = {"vector", "deque", "map", "set"}
_ENTRY_NAMES = {"Run", "Resume", "Init", "Start"}
_ENTRY_PREFIXES = ("Make", "Create", "Open")


def _in_src(path):
    return path.startswith("src/")


def _wall_clock_scope(path):
    exempt = ("src/common/rng.", "src/common/sim_time.")
    return _in_src(path) and not path.startswith(exempt)


def _order_sensitive(path):
    return path.startswith(ORDER_SENSITIVE_PREFIXES)


def _float_eq_scope(path):
    return path.startswith(("src/scaler/", "src/fleet/"))


def _mutable_global_scope(path):
    return _in_src(path) and not path.startswith("src/common/")


MESSAGES = {
    "wall-clock": "wall-clock time / non-deterministic randomness outside "
                  "src/common/{rng,sim_time}; breaks seed-reproducibility",
    "unordered-container": "unordered container in a merge/report/fleet "
                           "path; iteration order is nondeterministic — "
                           "use std::map, std::vector, or annotate",
    "alloc-hot-path": "allocation / container growth in a hot region; use "
                      "the scratch buffers (see SignalScratch)",
    "float-equality": "naked ==/!= against a floating-point literal in "
                      "scaler threshold or fleet aggregation code; use an "
                      "epsilon comparison or compare in the integer domain",
    "discarded-status": "(void)-cast of a call expression silently drops a "
                        "[[nodiscard]] Status/Result; handle it or annotate "
                        "the intentional discard",
    "nodiscard-guard": "class-level [[nodiscard]] attribute was removed; "
                       "restore it",
    "pointer-key-container": "ordered container keyed on a pointer in an "
                             "order-sensitive path; iteration is address "
                             "order, which varies run to run — key on a "
                             "stable id instead",
    "mutable-global": "mutable namespace-scope state outside src/common/; "
                      "hidden globals break replay determinism — make it "
                      "constexpr/const or move it into an object",
    "nodiscard-status-fn": "free function returning Status/Result lacks "
                           "[[nodiscard]]; a dropped error is silently "
                           "swallowed at call sites",
    "options-validate": "entry point takes an options struct that defines "
                        "Validate() but never calls it; validate before "
                        "use or annotate where validation happens",
}

ALL_RULES = tuple(MESSAGES)


class Finding:
    def __init__(self, path, line_no, rule, message=None):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message or MESSAGES.get(rule, rule)

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Per-file analysis context
# ---------------------------------------------------------------------------

class FileContext:
    """Lexed + structurally analyzed file, with suppression maps."""

    def __init__(self, relpath, text):
        self.relpath = relpath
        self.lexed = cpptok.lex(text)
        self.tokens = self.lexed.tokens
        self.model = cpptok.StructureModel(self.tokens)
        self.file_allows = set()
        self.allow_lines = {}   # line -> set(rule)
        self.hot_anchor_lines = set()
        self._scan_annotations(text)

    def _code_lines(self):
        return sorted({t.line for t in self.tokens})

    def _next_code_line(self, after_line, code_lines):
        import bisect
        i = bisect.bisect_right(code_lines, after_line)
        return code_lines[i] if i < len(code_lines) else None

    def _scan_annotations(self, text):
        code_lines = self._code_lines()
        code_line_set = set(code_lines)
        for triv in self.lexed.trivia:
            if triv.kind != cpptok.COMMENT:
                continue
            m = ALLOW_FILE_RE.search(triv.text)
            if m and triv.line <= 15:
                self.file_allows |= _parse_allow(m)
            m = ALLOW_RE.search(triv.text)
            if m:
                rules = _parse_allow(m)
                if triv.line in code_line_set:
                    target = triv.line
                else:
                    target = self._next_code_line(triv.end_line, code_lines)
                if target is not None:
                    self.allow_lines.setdefault(target, set()).update(rules)
            if HOT_RE.search(triv.text):
                if triv.line in code_line_set:
                    self.hot_anchor_lines.add(triv.line)
                else:
                    nxt = self._next_code_line(triv.end_line, code_lines)
                    if nxt is not None:
                        self.hot_anchor_lines.add(nxt)

    def allowed(self, rule, line):
        if rule in self.file_allows:
            return True
        return rule in self.allow_lines.get(line, set())

    # -- hot regions -------------------------------------------------------

    def hot_ranges(self):
        """Token-index ranges under alloc-hot-path enforcement."""
        ranges = []
        if self.relpath in HOT_PATH_FILES:
            ranges.append((0, len(self.tokens)))
            return ranges
        for fn in self.model.functions:
            if fn.body_close is None:
                continue
            body_open_line = self.tokens[fn.body_open].line
            if any(fn.sig_line <= ln <= body_open_line
                   for ln in self.hot_anchor_lines):
                # Signature (for by-value params) + body.
                ranges.append((fn.head_start, fn.body_close + 1))
        return ranges


def _parse_allow(match):
    return {r.strip() for r in match.group(1).split(",") if r.strip()}


# ---------------------------------------------------------------------------
# Token helpers
# ---------------------------------------------------------------------------

def _next(tokens, i, k=1):
    j = i + k
    return tokens[j] if 0 <= j < len(tokens) else None


def _is(tok, kind, text=None):
    return tok is not None and tok.kind == kind and \
        (text is None or tok.text == text)


def _match_angle(tokens, i):
    """tokens[i] is '<'; returns index of the matching '>' (treating '>>'
    as two closes), or None."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == PUNCT:
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    return i
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    return i
            elif t.text in (";", "{", "}"):
                return None
        i += 1
    return None


def _match_paren(tokens, i):
    return cpptok._match_forward(tokens, i, "(", ")")


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def rule_wall_clock(ctx):
    out = []
    toks = ctx.tokens
    for i, t in enumerate(toks):
        if t.kind != ID:
            continue
        if t.text in _CLOCK_IDS:
            out.append((t.line, "wall-clock"))
            continue
        nxt = _next(toks, i)
        if t.text in ("rand", "srand") and _is(nxt, PUNCT, "("):
            prev = toks[i - 1] if i else None
            if _is(prev, PUNCT, "::") and not _is(toks[i - 2], ID, "std"):
                continue  # some_ns::rand — not the libc one
            out.append((t.line, "wall-clock"))
        elif t.text in ("gettimeofday", "clock_gettime") and \
                _is(nxt, PUNCT, "("):
            out.append((t.line, "wall-clock"))
        elif t.text == "time" and _is(nxt, PUNCT, "("):
            prev = toks[i - 1] if i else None
            if _is(prev, PUNCT, "::"):
                continue
            arg = _next(toks, i, 2)
            if arg is not None and (
                    _is(arg, ID, "NULL") or _is(arg, ID, "nullptr") or
                    (arg.kind == NUM and arg.text == "0") or
                    _is(arg, PUNCT, "&")):
                out.append((t.line, "wall-clock"))
    return out


def rule_unordered_container(ctx):
    out = []
    toks = ctx.tokens
    for i, t in enumerate(toks):
        if t.kind == ID and t.text in _UNORDERED and \
                _is(toks[i - 1] if i else None, PUNCT, "::") and \
                _is(toks[i - 2] if i > 1 else None, ID, "std"):
            out.append((t.line, "unordered-container"))
    return out


def rule_pointer_key_container(ctx):
    out = []
    toks = ctx.tokens
    for i, t in enumerate(toks):
        if t.kind != ID or t.text not in _ORDERED_ASSOC:
            continue
        if not (_is(toks[i - 1] if i else None, PUNCT, "::") and
                _is(toks[i - 2] if i > 1 else None, ID, "std")):
            continue
        lt = _next(toks, i)
        if not _is(lt, PUNCT, "<"):
            continue
        close = _match_angle(toks, i + 1)
        if close is None:
            continue
        # First template argument: up to a top-level ',' or the close.
        depth = 0
        end = close
        for j in range(i + 2, close):
            tj = toks[j]
            if tj.kind != PUNCT:
                continue
            if tj.text in ("<", "(", "["):
                depth += 1
            elif tj.text in (">", ")", "]"):
                depth -= 1
            elif tj.text == ">>":
                depth -= 2
            elif tj.text == "," and depth == 0:
                end = j
                break
        key = toks[i + 2:end]
        if any(k.kind == PUNCT and k.text == "*" for k in key):
            out.append((t.line, "pointer-key-container"))
    return out


def rule_float_equality(ctx):
    out = []
    toks = ctx.tokens
    for i, t in enumerate(toks):
        if t.kind != PUNCT or t.text not in ("==", "!="):
            continue
        prev = toks[i - 1] if i else None
        nxt = _next(toks, i)
        for nb in (prev, nxt):
            if nb is not None and nb.kind == NUM and \
                    cpptok.is_float_literal(nb.text):
                out.append((t.line, "float-equality"))
                break
    return out


def rule_discarded_status(ctx):
    out = []
    toks = ctx.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if not _is(t, PUNCT, "("):
            continue
        if not (_is(_next(toks, i), ID, "void") and
                _is(_next(toks, i, 2), PUNCT, ")")):
            continue
        # Walk the callee chain: ids joined by :: . -> , ending at '('.
        j = i + 3
        saw_id = False
        while j < n:
            tj = toks[j]
            if tj.kind == ID:
                saw_id = True
                j += 1
            elif tj.kind == PUNCT and tj.text in ("::", ".", "->"):
                j += 1
            else:
                break
        if saw_id and j < n and _is(toks[j], PUNCT, "("):
            out.append((t.line, "discarded-status"))
    return out


def _nodiscard_guard_findings(ctx):
    cls = NODISCARD_GUARDS.get(ctx.relpath)
    if cls is None:
        return []
    toks = ctx.tokens
    for i, t in enumerate(toks):
        if _is(t, ID, "class") and \
                _is(_next(toks, i, 1), PUNCT, "[") and \
                _is(_next(toks, i, 2), PUNCT, "[") and \
                _is(_next(toks, i, 3), ID, "nodiscard") and \
                _is(_next(toks, i, 4), PUNCT, "]") and \
                _is(_next(toks, i, 5), PUNCT, "]") and \
                _is(_next(toks, i, 6), ID, cls):
            return []
    return [(1, "nodiscard-guard")]


def rule_alloc_hot_path(ctx):
    out = []
    toks = ctx.tokens
    ranges = ctx.hot_ranges()
    if not ranges:
        return out
    hot = bytearray(len(toks))
    for lo, hi in ranges:
        for k in range(lo, min(hi, len(toks))):
            hot[k] = 1

    # Parameter-list spans (to distinguish by-value params from locals) and
    # return-type spans (not flagged at all).
    in_params = bytearray(len(toks))
    in_rettype = bytearray(len(toks))
    for fn in ctx.model.functions:
        for k in range(fn.paren_open, fn.paren_close + 1):
            in_params[k] = 1
        for k in range(fn.head_start, fn.paren_open):
            in_rettype[k] = 1

    n = len(toks)
    for i, t in enumerate(toks):
        if not hot[i]:
            continue
        if t.kind == ID:
            prev = toks[i - 1] if i else None
            nxt = _next(toks, i)
            if t.text == "new":
                if not _is(prev, ID, "operator") and not _is(nxt, PUNCT, "("):
                    out.append((t.line, "alloc-hot-path"))
            elif t.text in ("make_unique", "make_shared"):
                if _is(prev, PUNCT, "::") and \
                        _is(toks[i - 2] if i > 1 else None, ID, "std"):
                    out.append((t.line, "alloc-hot-path"))
            elif t.text in ("malloc", "calloc") and _is(nxt, PUNCT, "("):
                if not (prev is not None and prev.kind == PUNCT and
                        prev.text in (".", "->", "::")):
                    out.append((t.line, "alloc-hot-path"))
            elif t.text in ("resize", "reserve") and _is(nxt, PUNCT, "(") \
                    and prev is not None and prev.kind == PUNCT and \
                    prev.text in (".", "->"):
                out.append((t.line, "alloc-hot-path"))
            elif t.text == "std" and _is(nxt, PUNCT, "::"):
                decl = _container_decl(toks, i)
                if decl is None or in_rettype[i]:
                    continue
                name_tok, by_ref_or_ptr, container = decl
                if by_ref_or_ptr:
                    continue  # scratch-bound reference / pointer binding
                if in_params[i]:
                    if container in _BYVAL_CONTAINERS:
                        out.append((t.line, "alloc-hot-path"))
                elif container in _FRESH_CONTAINERS:
                    out.append((t.line, "alloc-hot-path"))
    return out


def _container_decl(toks, i):
    """If toks[i:] begins a container-type declarator
    `std::<container><...args...> [&|*]* name [,;={(]` returns
    (name_token, is_ref_or_ptr, container_name); else None."""
    name = _next(toks, i, 2)
    if name is None or name.kind != ID:
        return None
    container = name.text
    if container not in (_FRESH_CONTAINERS | _BYVAL_CONTAINERS):
        return None
    j = i + 3
    if container == "string":
        close = i + 2  # no template args
    else:
        if not _is(toks[j] if j < len(toks) else None, PUNCT, "<"):
            return None
        close = _match_angle(toks, j)
        if close is None:
            return None
    # Declarator: optional &, &&, * tokens then an identifier.
    j = close + 1
    by_ref_or_ptr = False
    while j < len(toks) and toks[j].kind == PUNCT and \
            toks[j].text in ("&", "&&", "*"):
        by_ref_or_ptr = True
        j += 1
    if j >= len(toks) or toks[j].kind != ID:
        return None
    name_tok = toks[j]
    after = _next(toks, j)
    if after is None or after.kind != PUNCT or \
            after.text not in ("(", "{", ";", "=", ",", ")", "["):
        return None
    return name_tok, by_ref_or_ptr, container


# -- mutable-global ---------------------------------------------------------

_SKIP_FIRST = {"using", "typedef", "friend", "static_assert", "template",
               "extern", "namespace", "class", "struct", "union", "enum",
               "public", "private", "protected", "asm", "goto", "return"}
_CONSTISH = {"constexpr", "constinit"}


def _strip_attributes(head):
    """Removes [[...]] attribute groups from a token list."""
    out = []
    i = 0
    n = len(head)
    while i < n:
        if _is(head[i], PUNCT, "[") and i + 1 < n and \
                _is(head[i + 1], PUNCT, "["):
            depth = 0
            while i < n and head[i].kind == PUNCT and head[i].text == "[":
                depth += 1
                i += 1
            while i < n and depth > 0:
                if head[i].kind == PUNCT and head[i].text == "]":
                    depth -= 1
                i += 1
            continue
        out.append(head[i])
        i += 1
    return out


def rule_mutable_global(ctx):
    out = []
    toks = ctx.tokens
    stmts = [(lo, hi) for lo, hi, _ in ctx.model.namespace_statements] + \
        list(ctx.model.namespace_brace_inits)
    for lo, hi in stmts:
        head = _strip_attributes(toks[lo:hi])
        if len(head) < 2:
            continue
        if head[0].kind == ID and head[0].text in _SKIP_FIRST:
            continue
        texts = [t.text for t in head]
        if any(t in _CONSTISH for t in texts):
            continue
        # Cut at a top-level '=' (initializer) before looking for parens.
        depth = 0
        cut = len(head)
        for k, t in enumerate(head):
            if t.kind != PUNCT:
                continue
            if t.text in ("(", "[", "{", "<"):
                depth += 1
            elif t.text in (")", "]", "}", ">"):
                depth -= 1
            elif t.text == ">>":
                depth -= 2
            elif t.text == "=" and depth == 0:
                cut = k
                break
        decl = head[:cut]
        if any(t.kind == PUNCT and t.text == "(" for t in decl):
            continue  # function declaration / macro invocation
        if not decl or decl[-1].kind not in (ID,) and \
                not _is(decl[-1], PUNCT, "]"):
            continue
        star_positions = [k for k, t in enumerate(decl)
                          if t.kind == PUNCT and t.text == "*"]
        if star_positions:
            tail = decl[star_positions[-1] + 1:]
            if any(_is(t, ID, "const") for t in tail):
                continue  # T* const — the pointer itself is immutable
        elif any(_is(t, ID, "const") for t in decl):
            continue
        out.append((decl[0].line, "mutable-global"))
    return out


# -- nodiscard-status-fn ----------------------------------------------------

def _returns_status_or_result(head):
    """head = declaration tokens before the parameter '('. Returns True if
    the declared entity is an unqualified (free) function returning Status
    or Result<...>."""
    head = _strip_attributes(head)
    # Drop leading specifiers.
    i = 0
    while i < len(head) and head[i].kind == ID and head[i].text in (
            "static", "inline", "constexpr", "extern", "virtual", "friend"):
        i += 1
    if i >= len(head) or head[i].kind != ID:
        return False
    rt = head[i]
    if rt.text == "Status":
        name_start = i + 1
    elif rt.text == "Result" and _is(head[i + 1] if i + 1 < len(head)
                                     else None, PUNCT, "<"):
        # Skip the template argument list (may itself contain '::').
        depth = 0
        name_start = None
        for k in range(i + 1, len(head)):
            t = head[k]
            if t.kind != PUNCT:
                continue
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
            elif t.text == ">>":
                depth -= 2
            if depth <= 0:
                name_start = k + 1
                break
        if name_start is None:
            return False
    else:
        return False
    # The declarator must be exactly one identifier: the function name.
    # Anything else — `Status* f`, `Class::Fn` (member definition),
    # `operator==` — is out of this rule's scope.
    rest = head[name_start:]
    return len(rest) == 1 and rest[0].kind == ID


def _has_nodiscard(head):
    return any(t.kind == ID and t.text == "nodiscard" for t in head)


def rule_nodiscard_status_fn(ctx):
    out = []
    toks = ctx.tokens
    is_header = ctx.relpath.endswith(".h")
    seen_lines = set()

    def internal_linkage(head, scopes):
        if any(k == cpptok.NAMESPACE and n == "" for k, n in scopes):
            return True
        return any(t.kind == ID and t.text == "static" for t in head)

    # Declarations at namespace scope (`...;`).
    for lo, hi, scope_pairs in ctx.model.namespace_statements:
        head = toks[lo:hi]
        if not head:
            continue
        if head[0].kind == ID and head[0].text in (
                "using", "typedef", "template", "friend", "class", "struct",
                "enum", "union"):
            continue
        # Find the parameter '(' : first top-level '('.
        paren = None
        depth = 0
        for k, t in enumerate(head):
            if t.kind != PUNCT:
                continue
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
            elif t.text == ">>":
                depth -= 2
            elif t.text == "(" and depth <= 0:
                paren = k
                break
        if paren is None:
            continue
        sig = head[:paren]
        if not _returns_status_or_result(sig):
            continue
        if not is_header and not internal_linkage(sig, scope_pairs):
            continue
        if not _has_nodiscard(toks[lo:lo + paren]):
            if head[0].line not in seen_lines:
                seen_lines.add(head[0].line)
                out.append((head[0].line, "nodiscard-status-fn"))

    # Definitions (function records with a body) at namespace scope.
    for fn in ctx.model.functions:
        if any(k not in (cpptok.NAMESPACE, cpptok.EXTERN)
               for k, _ in fn.scope_path):
            continue
        if "::" in fn.qualified:
            continue
        head = fn.head_tokens(ctx.tokens)
        if not _returns_status_or_result(head):
            continue
        if not is_header and not internal_linkage(head, fn.scope_path):
            continue
        if not _has_nodiscard(head):
            if fn.sig_line not in seen_lines:
                seen_lines.add(fn.sig_line)
                out.append((fn.sig_line, "nodiscard-status-fn"))
    return out


# -- options-validate -------------------------------------------------------

def build_options_registry(contexts):
    """Set of type names ending in 'Options' that declare Status
    Validate(), discovered across the given FileContexts."""
    registry = set()
    for ctx in contexts:
        toks = ctx.tokens
        for open_idx, scope in ctx.model.scope_of_open.items():
            if scope.kind != cpptok.CLASS or \
                    not scope.name.endswith("Options"):
                continue
            close = scope.close_index or len(toks)
            for k in range(open_idx, close - 2):
                if _is(toks[k], ID, "Status") and \
                        _is(toks[k + 1], ID, "Validate") and \
                        _is(toks[k + 2], PUNCT, "("):
                    registry.add(scope.name)
                    break
    return registry


def _is_entry_point(fn):
    name = fn.name
    if name in _ENTRY_NAMES or name.startswith(_ENTRY_PREFIXES):
        return True
    # Constructor: inline (enclosing class name matches) or out-of-line
    # (qualifier's last component matches the name).
    for kind, sname in reversed(fn.scope_path):
        if kind == cpptok.CLASS:
            return sname == name
    parts = fn.qualified.split("::")
    return len(parts) >= 2 and parts[-1] == parts[-2]


def rule_options_validate(ctx, registry):
    if not ctx.relpath.endswith(".cc") or not _in_src(ctx.relpath):
        return []
    out = []
    toks = ctx.tokens
    for fn in ctx.model.functions:
        if fn.body_close is None or not _is_entry_point(fn):
            continue
        has_opts = any(
            any(t.kind == ID and t.text in registry for t in p.type_tokens)
            for p in fn.params)
        if not has_opts:
            continue
        body = toks[fn.body_open:fn.body_close + 1]
        calls_validate = any(
            _is(body[k], ID, "Validate") and
            k + 1 < len(body) and _is(body[k + 1], PUNCT, "(")
            for k in range(len(body)))
        if not calls_validate:
            out.append((fn.sig_line, "options-validate"))
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def lint_context(ctx, registry):
    """All findings for one analyzed file, suppression applied."""
    raw = []
    path = ctx.relpath
    if _wall_clock_scope(path):
        raw += rule_wall_clock(ctx)
    if _order_sensitive(path):
        raw += rule_unordered_container(ctx)
        raw += rule_pointer_key_container(ctx)
    if _float_eq_scope(path):
        raw += rule_float_equality(ctx)
    if _in_src(path) or path.startswith("tests/"):
        raw += rule_discarded_status(ctx)
    if _in_src(path) or path.startswith("tests/"):
        raw += rule_alloc_hot_path(ctx)
    if _mutable_global_scope(path):
        raw += rule_mutable_global(ctx)
    if _in_src(path):
        raw += rule_nodiscard_status_fn(ctx)
        raw += rule_options_validate(ctx, registry)
    raw += _nodiscard_guard_findings(ctx)

    findings = []
    for line, rule in sorted(set(raw)):
        if ctx.allowed(rule, line):
            continue
        findings.append(Finding(path, line, rule))
    return findings


def load_context(root, relpath):
    try:
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        return None, Finding(relpath, 0, "io", f"unreadable: {e}")
    return FileContext(relpath, text), None


def iter_source_files(root):
    wanted_dirs = ("src", "tests")
    exts = (".cc", ".h")
    for top in wanted_dirs:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(exts):
                    yield os.path.relpath(os.path.join(dirpath, fn), root)


def _registry_paths(root, relpaths):
    """The options registry is always built from every src/ header plus
    the linted set, so --diff / path-subset runs see the same type
    universe as a full run."""
    paths = set(relpaths)
    for rel in iter_source_files(root):
        if rel.startswith("src/") and rel.endswith(".h"):
            paths.add(rel)
    return sorted(paths)


def lint_tree(root, relpaths=None):
    """Lints `relpaths` (default: every src/tests source file) under
    `root` and returns the Finding list. The options registry is always
    built from the full header set so subset runs see the same type
    universe as a full run."""
    if relpaths is None:
        relpaths = list(iter_source_files(root))
    contexts = {}
    findings = []
    for rel in _registry_paths(root, relpaths):
        ctx, err = load_context(root, rel)
        if err is not None:
            if rel in relpaths:
                findings.append(err)
            continue
        contexts[rel] = ctx
    registry = build_options_registry(contexts.values())
    for rel in relpaths:
        ctx = contexts.get(rel)
        if ctx is not None:
            findings.extend(lint_context(ctx, registry))
    return findings


def diff_files(root, base):
    """Root-relative src/tests .cc/.h files changed vs the merge-base with
    `base`, plus untracked ones. Returns None if git is unavailable."""
    def git(*args):
        return subprocess.run(["git", "-C", root] + list(args),
                              capture_output=True, text=True, check=False)

    mb = git("merge-base", "HEAD", base)
    anchor = mb.stdout.strip() if mb.returncode == 0 else "HEAD"
    changed = git("diff", "--name-only", anchor, "--", "src", "tests")
    if changed.returncode != 0:
        return None
    untracked = git("ls-files", "--others", "--exclude-standard",
                    "--", "src", "tests")
    names = set(changed.stdout.split()) | set(untracked.stdout.split())
    return sorted(n for n in names
                  if n.endswith((".cc", ".h")) and
                  os.path.exists(os.path.join(root, n)))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="dbscale token-stream invariant linter")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this "
                             "script)")
    parser.add_argument("paths", nargs="*",
                        help="root-relative files to lint (default: all of "
                             "src/ and tests/)")
    parser.add_argument("--diff", action="store_true",
                        help="lint only files changed vs the merge-base "
                             "with --diff-base (plus untracked files)")
    parser.add_argument("--diff-base", default="main",
                        help="base ref for --diff (default: main)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the all-clear summary line")
    parser.add_argument("--timing", action="store_true",
                        help="print wall time to stderr")
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = args.root or os.path.normpath(os.path.join(HERE, "..", ".."))
    if not os.path.isdir(root):
        print(f"dbscale_lint: no such root: {root}", file=sys.stderr)
        return 2

    if args.diff:
        relpaths = diff_files(root, args.diff_base)
        if relpaths is None:
            print("dbscale_lint: --diff requires git; falling back to "
                  "full run", file=sys.stderr)
            relpaths = list(iter_source_files(root))
        elif not relpaths:
            if not args.quiet:
                print("dbscale_lint: OK (no changed files)")
            return 0
    else:
        relpaths = [p.replace(os.sep, "/") for p in args.paths] \
            or list(iter_source_files(root))

    findings = lint_tree(root, relpaths)

    for f in findings:
        print(f)
    elapsed = time.monotonic() - started
    if args.timing:
        print(f"dbscale_lint: {elapsed:.2f}s wall", file=sys.stderr)
    if findings:
        print(f"dbscale_lint: {len(findings)} finding(s) in "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"dbscale_lint: OK ({len(relpaths)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
