#!/usr/bin/env python3
"""Project-specific static analysis: the determinism & wire invariants.

The repo's core guarantee — estimates bit-identical to the serial driver
and §1.1 comm totals exact to the message — is enforced dynamically by
the replay/equivalence test tiers. This checker enforces the *source*
patterns those tiers depend on, so a nondeterminism bug cannot hide
until a workload happens to trigger it. It is a real lexer-aware pass
(comments and string literals never produce findings), stdlib-only.

Rules (catalog + rationale: docs/STATIC_ANALYSIS.md):

  unordered-iter   no iteration (range-for, .begin()/.cbegin(),
                   erase-loop) over std::unordered_{map,set} anywhere in
                   src/ — hash-layout order leaks into message order,
                   exports, and folds. common/ordered_drain.h is the one
                   sanctioned walk.
  banned-source    no std::random_device, rand()/srand(), time()/clock()
                   family, or std::chrono outside common/random.* and
                   the bench timer (bench/bench_util.h). Replay must be
                   a pure function of (workload, seed).
  pointer-key      no pointer-typed keys in map/set containers and no
                   raw-pointer comparisons as sort tie-breaks in src/ —
                   allocator addresses are run-to-run nondeterministic.
  wire-switch      every wire.h MsgType enumerator appears in each of
                   wire.cc's KnownType/HasVectors/PaperWordCharge
                   switches and in docs/WIRE_PROTOCOL.md's type table
                   (the frozen-wire guarantee, at the source level).
  meter-tap        in any tracker file wired for wire taps, every
                   CommMeter charge (meter_.Record*) must sit next to a
                   WireTap emit (EmitTap / tap_->OnMessage) so the §1.1
                   ledger and the frame stream cannot drift apart.
  site-check       every Arrive*/Push*/ShardArriveRun delivery entry
                   point validates its site ids (sim::CheckSiteInRange,
                   directly or via a checked helper) — the PR 4
                   abort-with-diagnostic invariant.
  simd-isolation   #include <immintrin.h> and _mm*/__m* intrinsic
                   tokens are confined to common/simd.h, which holds
                   none: the library is portable scalar code, so no
                   file can fork scalar and SIMD behavior.

Suppression: a finding is suppressed by an annotation comment on the
same line or on the comment block immediately above it:

    // disttrack-lint: allow(<rule>[,<rule>...]) -- <reason>

The reason is mandatory; annotations without one, and annotations that
suppress nothing, are themselves findings. Every suppression is counted
and listed in the run summary (and by --list-suppressions), so the
reviewed-exception surface stays visible.

Usage:

    python3 scripts/check_invariants.py              # lint rules only
    python3 scripts/check_invariants.py --all        # + doc drift + tidy
                                                     #   baseline file guard
    python3 scripts/check_invariants.py --self-test  # fixture suite
    python3 scripts/check_invariants.py --list-suppressions
"""

import argparse
import pathlib
import re
import sys
from collections import namedtuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

RULES = (
    "unordered-iter",
    "banned-source",
    "pointer-key",
    "wire-switch",
    "meter-tap",
    "site-check",
    "simd-isolation",
)

# ----------------------------------------------------------------- lexer

Token = namedtuple("Token", "kind text line")  # kind: id num punct comment str

_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")
# Multi-char punctuators we must not split ('::' above all: a naive ':'
# token would make range-for colon detection ambiguous).
_PUNCT3 = ("<<=", ">>=", "...", "->*")
_PUNCT2 = ("::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
           "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")


def tokenize(text):
    """C++ source -> Token list. Comments/strings kept as opaque tokens."""
    tokens = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                j = n if j < 0 else j
                tokens.append(Token("comment", text[i:j], line))
                i = j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                j = n - 2 if j < 0 else j
                body = text[i:j + 2]
                tokens.append(Token("comment", body, line))
                line += body.count("\n")
                i = j + 2
                continue
        if c == '"' or (c == "R" and text[i:i + 2] == 'R"'):
            if c == "R":  # raw string R"delim( ... )delim"
                m = re.match(r'R"([^(\s]*)\(', text[i:])
                if m:
                    end = text.find(")" + m.group(1) + '"', i)
                    end = n if end < 0 else end + len(m.group(1)) + 2
                    body = text[i:end]
                    tokens.append(Token("str", body, line))
                    line += body.count("\n")
                    i = end
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token("str", text[i:j + 1], line))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token("str", text[i:j + 1], line))
            i = j + 1
            continue
        if c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            tokens.append(Token("id", text[i:j], line))
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and (text[j] in _ID_CONT or text[j] in ".'"):
                j += 1
            tokens.append(Token("num", text[i:j], line))
            i = j
            continue
        for p in _PUNCT3:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line))
                i += 3
                break
        else:
            for p in _PUNCT2:
                if text.startswith(p, i):
                    tokens.append(Token("punct", p, line))
                    i += 2
                    break
            else:
                tokens.append(Token("punct", c, line))
                i += 1
    return tokens


class SourceFile:
    """One lexed file: token stream + the significant (code-only) view."""

    def __init__(self, path, rel, text=None):
        self.path = path
        self.rel = rel
        self.text = path.read_text(encoding="utf-8") if text is None else text
        self.tokens = tokenize(self.text)
        self.code = [t for t in self.tokens if t.kind not in ("comment",)]

    def code_lines(self):
        return {t.line for t in self.code}


Finding = namedtuple("Finding", "rel line rule msg")

# ----------------------------------------------------------- annotations

_ANNOT_RE = re.compile(
    r"disttrack-lint:\s*allow\(([^)]*)\)\s*(--\s*(\S.*))?", re.S)


class Annotation:
    def __init__(self, rel, line, rules, reason, covers):
        self.rel = rel
        self.line = line          # line of the annotation comment itself
        self.rules = rules        # list of rule names
        self.reason = reason      # may be None (-> bad-annotation)
        self.covers = covers      # set of lines it suppresses
        self.used = False


def collect_annotations(src):
    """Annotations in src + bad-annotation findings.

    A trailing annotation (code earlier on the same line) covers its own
    line. A whole-line/block comment annotation covers the next line that
    carries code.
    """
    annotations, findings = [], []
    code_lines = src.code_lines()
    for idx, tok in enumerate(src.tokens):
        if tok.kind != "comment":
            continue
        m = _ANNOT_RE.search(tok.text)
        if not m:
            if "disttrack-lint" in tok.text:
                findings.append(Finding(
                    src.rel, tok.line, "bad-annotation",
                    "malformed disttrack-lint annotation (want "
                    "'disttrack-lint: allow(<rule>) -- <reason>')"))
            continue
        rules = [r.strip() for r in m.group(1).split(",") if r.strip()]
        reason = m.group(3).strip() if m.group(3) else None
        bad = [r for r in rules if r not in RULES]
        if bad:
            findings.append(Finding(
                src.rel, tok.line, "bad-annotation",
                f"unknown rule(s) {', '.join(bad)} in allow()"))
        if not reason:
            findings.append(Finding(
                src.rel, tok.line, "bad-annotation",
                "suppression without a reason ('-- <why this is safe>' "
                "is mandatory)"))
        covers = {tok.line}
        if any(t.line == tok.line for t in src.code):
            pass  # trailing comment: covers its own line only
        else:
            nxt = [ln for ln in code_lines if ln > tok.line]
            if nxt:
                covers.add(min(nxt))
        annotations.append(Annotation(src.rel, tok.line, rules,
                                      reason, covers))
    return annotations, findings

# ------------------------------------------------- rule: unordered-iter

_UNORDERED_TYPES = {"unordered_map", "unordered_set",
                    "unordered_multimap", "unordered_multiset"}


def collect_unordered_names(files):
    """Variable/member names declared with an unordered container type."""
    names = set()
    for src in files:
        code = src.code
        for i, tok in enumerate(code):
            if tok.kind != "id" or tok.text not in _UNORDERED_TYPES:
                continue
            if i + 1 >= len(code) or code[i + 1].text != "<":
                continue
            depth, j = 1, i + 2
            while j < len(code) and depth:
                if code[j].text == "<":
                    depth += 1
                elif code[j].text == ">":
                    depth -= 1
                elif code[j].text == ">>":
                    depth -= 2
                j += 1
            if j < len(code) and code[j].kind == "id":
                names.add(code[j].text)
    return names


def rule_unordered_iter(src, unordered_names):
    findings = []
    code = src.code
    for i, tok in enumerate(code):
        # x.begin( / x->begin( / x.cbegin( ... on an unordered name
        if (tok.kind == "id"
                and tok.text in ("begin", "end", "cbegin", "cend",
                                 "rbegin", "rend")
                and i >= 2 and code[i - 1].text in (".", "->")
                and code[i - 2].kind == "id"
                and code[i - 2].text in unordered_names
                and i + 1 < len(code) and code[i + 1].text == "("):
            # A lone container.end() against a find() iterator is the
            # membership idiom, not iteration; begin() is what starts a
            # walk, so only the begin family fires.
            if tok.text in ("begin", "cbegin", "rbegin"):
                findings.append(Finding(
                    src.rel, tok.line, "unordered-iter",
                    f"iteration over unordered container "
                    f"'{code[i - 2].text}' (.{tok.text}()) — hash-layout "
                    f"order is not deterministic; use "
                    f"common/ordered_drain.h"))
        # range-for over an unordered name:  for ( ... : <expr> )
        if tok.kind == "id" and tok.text == "for" and i + 1 < len(code) \
                and code[i + 1].text == "(":
            depth, j, colon = 1, i + 2, None
            while j < len(code) and depth:
                t = code[j].text
                if t == "(":
                    depth += 1
                elif t == ")":
                    depth -= 1
                elif t == ":" and depth == 1:
                    colon = j
                elif t == ";" and depth == 1:
                    colon = None  # classic for, not range-for
                    break
                j += 1
            if colon is not None:
                expr = code[colon + 1:j - 1]
                # Only a bare id-chain ending in the container counts;
                # call results (SortedItems(...), Items()) are vectors.
                if expr and expr[-1].kind == "id" \
                        and expr[-1].text in unordered_names:
                    findings.append(Finding(
                        src.rel, expr[-1].line, "unordered-iter",
                        f"range-for over unordered container "
                        f"'{expr[-1].text}' — hash-layout order is not "
                        f"deterministic; use common/ordered_drain.h"))
    return findings

# ------------------------------------------------- rule: banned-source

_BANNED_CALLS = {"rand", "srand", "time", "clock", "gettimeofday",
                 "timespec_get", "clock_gettime", "localtime", "gmtime"}
_BANNED_IDS = {"random_device"}
_BANNED_SOURCE_ALLOWLIST = {
    "src/disttrack/common/random.h",
    "src/disttrack/common/random.cc",
    "bench/bench_util.h",  # the bench timer
}


def rule_banned_source(src):
    if src.rel in _BANNED_SOURCE_ALLOWLIST:
        return []
    findings = []
    code = src.code
    for i, tok in enumerate(code):
        if tok.kind != "id":
            continue
        if tok.text in _BANNED_IDS:
            findings.append(Finding(
                src.rel, tok.line, "banned-source",
                f"'{tok.text}' is a nondeterminism source; seed a "
                f"common/random.h Rng instead"))
            continue
        if tok.text == "chrono" and i >= 2 and code[i - 1].text == "::" \
                and code[i - 2].text == "std":
            findings.append(Finding(
                src.rel, tok.line, "banned-source",
                "std::chrono outside the bench timer — replay must not "
                "read clocks"))
            continue
        if tok.text in _BANNED_CALLS and i + 1 < len(code) \
                and code[i + 1].text == "(":
            prev = code[i - 1].text if i else ""
            if prev in (".", "->"):
                continue  # member of some object, not the libc call
            if prev == "::" and (i < 2 or code[i - 2].text != "std"):
                continue  # qualified member (Foo::time), not std::
            findings.append(Finding(
                src.rel, tok.line, "banned-source",
                f"call to '{tok.text}()' — wall-clock/libc randomness "
                f"is banned outside common/random.* and the bench timer"))
    return findings

# --------------------------------------------------- rule: pointer-key

_ASSOC_TYPES = {"map", "set", "multimap", "multiset"} | _UNORDERED_TYPES


def rule_pointer_key(src):
    findings = []
    code = src.code
    for i, tok in enumerate(code):
        if tok.kind == "id" and tok.text in _ASSOC_TYPES \
                and i + 1 < len(code) and code[i + 1].text == "<":
            # first template argument, depth-1 slice up to ',' or '>'
            depth, j, arg = 1, i + 2, []
            while j < len(code) and depth:
                t = code[j].text
                if t == "<":
                    depth += 1
                elif t in (">", ">>"):
                    depth -= 2 if t == ">>" else 1
                elif t == "," and depth == 1:
                    break
                if depth:
                    arg.append(code[j])
                j += 1
            if arg and arg[-1].text == "*":
                findings.append(Finding(
                    src.rel, tok.line, "pointer-key",
                    f"pointer-typed key in std::{tok.text} — allocator "
                    f"addresses order nondeterministically; key by a "
                    f"minted id"))
        # std::sort(..., [](T* a, T* b) { return a < b; }) style
        if tok.kind == "id" and tok.text in ("sort", "stable_sort") \
                and i + 1 < len(code) and code[i + 1].text == "(":
            depth, j = 1, i + 2
            call = []
            while j < len(code) and depth:
                t = code[j].text
                if t == "(":
                    depth += 1
                elif t == ")":
                    depth -= 1
                if depth:
                    call.append(code[j])
                j += 1
            findings.extend(_pointer_comparator_findings(src, call))
    return findings


def _pointer_comparator_findings(src, call_tokens):
    """Lambda comparator with pointer params compared raw -> finding."""
    out = []
    for i, tok in enumerate(call_tokens):
        if tok.text != "[":
            continue
        # find the lambda param list ( ... )
        j = i + 1
        while j < len(call_tokens) and call_tokens[j].text != "]":
            j += 1
        if j + 1 >= len(call_tokens) or call_tokens[j + 1].text != "(":
            continue
        depth, k = 1, j + 2
        params = []
        while k < len(call_tokens) and depth:
            t = call_tokens[k].text
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
            if depth:
                params.append(call_tokens[k])
            k += 1
        ptr_params = set()
        for p in range(1, len(params)):
            if params[p].kind == "id" and params[p - 1].text == "*":
                ptr_params.add(params[p].text)
        if not ptr_params:
            continue
        body = call_tokens[k:]
        for b in range(1, len(body) - 1):
            if body[b].text in ("<", ">") \
                    and body[b - 1].kind == "id" \
                    and body[b - 1].text in ptr_params \
                    and body[b + 1].kind == "id" \
                    and body[b + 1].text in ptr_params:
                out.append(Finding(
                    src.rel, body[b].line, "pointer-key",
                    "raw pointer comparison as sort key — allocator "
                    "addresses are run-to-run nondeterministic"))
    return out

# --------------------------------------------------- rule: wire-switch

_WIRE_FUNCS = ("KnownType", "HasVectors", "PaperWordCharge")


def _enum_msg_types(text):
    m = re.search(r"enum class MsgType[^{]*\{(.*?)\};", text, re.S)
    if not m:
        return None
    return {name: int(value)
            for name, value in re.findall(r"\b(k\w+)\s*=\s*(\d+)",
                                          m.group(1))}


def _switch_cases_in_function(src, func_name):
    """Enumerators appearing as 'case MsgType::kX' inside func_name's body.

    Returns None if no definition of func_name is found.
    """
    code = src.code
    for i, tok in enumerate(code):
        if tok.kind != "id" or tok.text != func_name:
            continue
        if i + 1 >= len(code) or code[i + 1].text != "(":
            continue
        depth, j = 1, i + 2
        while j < len(code) and depth:
            if code[j].text == "(":
                depth += 1
            elif code[j].text == ")":
                depth -= 1
            j += 1
        if j >= len(code) or code[j].text != "{":
            continue  # a call or a declaration, not the definition
        depth, k = 1, j + 1
        cases = set()
        while k < len(code) and depth:
            t = code[k].text
            if t == "{":
                depth += 1
            elif t == "}":
                depth -= 1
            elif code[k].kind == "id" and t == "MsgType" \
                    and k + 2 < len(code) and code[k + 1].text == "::" \
                    and code[k - 1].text not in ("class",):
                # count only 'case MsgType::kX' labels
                back = k - 1
                if back >= 0 and code[back].text == "case" or (
                        back >= 1 and code[back].text == "::"
                        and code[back - 1].text == "case"):
                    cases.add(code[k + 2].text)
                elif back >= 2 and code[back].kind == "id" \
                        and code[back - 1].text == "case":
                    cases.add(code[k + 2].text)
            k += 1
        return cases
    return None


def rule_wire_switch(wire_h, wire_cc, wire_doc_text, doc_rel):
    findings = []
    enum = _enum_msg_types(wire_h.text)
    if enum is None:
        return [Finding(wire_h.rel, 1, "wire-switch",
                        "could not find 'enum class MsgType'")]
    for func in _WIRE_FUNCS:
        cases = _switch_cases_in_function(wire_cc, func)
        if cases is None:
            findings.append(Finding(
                wire_cc.rel, 1, "wire-switch",
                f"no switch-bearing definition of {func}() found"))
            continue
        for name in sorted(enum, key=enum.get):
            if name not in cases:
                findings.append(Finding(
                    wire_cc.rel, 1, "wire-switch",
                    f"MsgType::{name} (= {enum[name]}) is not handled in "
                    f"{func}() — every enumerator must appear in its "
                    f"switch"))
    documented = {name: int(value) for value, name in
                  re.findall(r"^\|\s*(\d+)\s*\|\s*`(k\w+)`",
                             wire_doc_text, re.M)}
    for name in sorted(enum, key=enum.get):
        if name not in documented:
            findings.append(Finding(
                doc_rel, 1, "wire-switch",
                f"MsgType::{name} (= {enum[name]}) missing from the "
                f"wire-protocol type table"))
        elif documented[name] != enum[name]:
            findings.append(Finding(
                doc_rel, 1, "wire-switch",
                f"MsgType::{name} documented as {documented[name]}, "
                f"wire.h says {enum[name]}"))
    return findings

# ----------------------------------------------------- rule: meter-tap

_CHARGE_RE = re.compile(r"\bRecord(Upload|UploadBulk|Download|Broadcast)\b")
_TAP_WINDOW_BEFORE = 3
_TAP_WINDOW_AFTER = 12


def rule_meter_tap(src):
    # Scope: only files that participate in the wire-tap differential.
    ids = {t.text for t in src.code if t.kind == "id"}
    if "tap_" not in ids and "set_wire_tap" not in ids:
        return []
    findings = []
    code = src.code
    tap_lines = {t.line for i, t in enumerate(code)
                 if t.kind == "id" and t.text in ("tap_", "EmitTap")}
    for i, tok in enumerate(code):
        if tok.kind != "id" or not _CHARGE_RE.match(tok.text):
            continue
        if i < 2 or code[i - 1].text not in (".", "->") \
                or not code[i - 2].text.startswith("meter"):
            continue
        lo = tok.line - _TAP_WINDOW_BEFORE
        hi = tok.line + _TAP_WINDOW_AFTER
        if not any(lo <= ln <= hi for ln in tap_lines):
            findings.append(Finding(
                src.rel, tok.line, "meter-tap",
                f"CommMeter charge ({tok.text}) with no WireTap emit "
                f"within {_TAP_WINDOW_AFTER} lines — the frame stream "
                f"and the §1.1 ledger would drift"))
    return findings

# ---------------------------------------------------- rule: site-check

_ENTRY_NAMES = {"Arrive", "ArriveBatch", "ArriveSites", "ArriveRun",
                "Push", "PushSites", "ShardArriveRun"}
# Helpers that perform the range check themselves; calling one counts.
# SiteGrouper's scatter/count methods validate every id they bucket
# (common/site_group.cc), so routing through the grouper is a check.
_CHECKED_HELPERS = {"CheckSiteInRange", "CheckArrivalSites",
                    "CheckSitesInRange", "CountSites", "ScatterBySite"}


def rule_site_check(src):
    findings = []
    code = src.code
    for i, tok in enumerate(code):
        if tok.kind != "id" or tok.text not in _ENTRY_NAMES:
            continue
        # definition shape: Class :: Name ( params ) [qualifiers] {
        if i < 2 or code[i - 1].text != "::" or code[i - 2].kind != "id":
            continue
        if i + 1 >= len(code) or code[i + 1].text != "(":
            continue
        depth, j = 1, i + 2
        params = []
        while j < len(code) and depth:
            if code[j].text == "(":
                depth += 1
            elif code[j].text == ")":
                depth -= 1
            if depth:
                params.append(code[j])
            j += 1
        while j < len(code) and code[j].text in ("const", "noexcept",
                                                 "override", "final"):
            j += 1
        if j >= len(code) or code[j].text != "{":
            continue  # declaration, not a definition
        # Entry points that don't name a site/arrival have nothing to
        # check (e.g. service-side Arrive(uint64_t key) on a fixed site).
        param_ids = {t.text for t in params if t.kind == "id"}
        if not ({"site", "sites", "arrivals"} & param_ids):
            continue
        depth, k = 1, j + 1
        body_ids = set()
        while k < len(code) and depth:
            t = code[k].text
            if t == "{":
                depth += 1
            elif t == "}":
                depth -= 1
            elif code[k].kind == "id":
                body_ids.add(t)
            k += 1
        if not (body_ids & _CHECKED_HELPERS):
            findings.append(Finding(
                src.rel, tok.line, "site-check",
                f"delivery entry point {code[i - 2].text}::{tok.text}() "
                f"has no site-id range check "
                f"(sim::CheckSiteInRange) — out-of-range ids must abort "
                f"with a diagnostic, not corrupt per-site state"))
    return findings

# ------------------------------------------------ rule: simd-isolation

# The one file allowed to hold intrinsics. It holds none today (only a
# cpuid stamp), so the rule keeps intrinsics out of the whole tree.
_SIMD_ISOLATION_ALLOWLIST = {"src/disttrack/common/simd.h"}
_SIMD_TYPE_RE = re.compile(r"^__m\d")  # __m128i / __m256i / __m512 ...


def rule_simd_isolation(src):
    if src.rel in _SIMD_ISOLATION_ALLOWLIST:
        return []
    findings = []
    for tok in src.code:
        if tok.kind != "id":
            continue
        if tok.text.startswith("_mm") or tok.text == "immintrin" \
                or _SIMD_TYPE_RE.match(tok.text):
            findings.append(Finding(
                src.rel, tok.line, "simd-isolation",
                f"'{tok.text}' outside common/simd.h — the library is "
                f"portable scalar code; a vector kernel must first win "
                f"outside the noise band and come with a scalar mirror"))
    return findings

# ------------------------------------------------------------- driver


def scan_files(root):
    """The lintable file set, as SourceFile objects."""
    patterns = [
        ("src", "**/*.h"), ("src", "**/*.cc"),
        ("tests", "*.cc"), ("tests", "*.h"),
        ("bench", "*.cpp"), ("bench", "*.h"),
        ("examples", "*.cpp"),
        ("service", "*.cpp"),
    ]
    files = []
    for base, pat in patterns:
        for path in sorted((root / base).glob(pat)):
            rel = path.relative_to(root).as_posix()
            if rel.startswith("tests/lint_fixture"):
                continue  # fixtures violate rules on purpose
            files.append(SourceFile(path, rel))
    return files


def run_rules(files, root, wire_paths=None):
    """All findings (pre-suppression) + the per-file annotation lists."""
    findings = []
    annotations = []
    for src in files:
        a, bad = collect_annotations(src)
        annotations.extend(a)
        findings.extend(bad)

    # Unordered-container names are scoped per translation unit: a file
    # sees its own declarations plus its same-stem header's (members a
    # .cc iterates are declared in its .h). A global pool would alias
    # same-named members of unrelated classes (an ordered 'frozen_' in
    # one file vs an unordered one in another).
    declared = {f.rel: collect_unordered_names([f])
                for f in files if f.rel.startswith("src/")}
    for src in files:
        if src.rel.startswith("src/"):
            stem = src.rel.rsplit(".", 1)[0]
            unordered_names = (declared.get(src.rel, set())
                               | declared.get(stem + ".h", set()))
            findings.extend(rule_unordered_iter(src, unordered_names))
            findings.extend(rule_pointer_key(src))
            findings.extend(rule_meter_tap(src))
            findings.extend(rule_site_check(src))
        findings.extend(rule_banned_source(src))
        findings.extend(rule_simd_isolation(src))

    if wire_paths is None:
        wire_paths = (root / "src/disttrack/sim/wire.h",
                      root / "src/disttrack/sim/wire.cc",
                      root / "docs/WIRE_PROTOCOL.md")
    wire_h_path, wire_cc_path, wire_doc_path = wire_paths
    if wire_h_path.exists() and wire_cc_path.exists():
        wire_h = next((f for f in files if f.path == wire_h_path),
                      SourceFile(wire_h_path,
                                 wire_h_path.name))
        wire_cc = next((f for f in files if f.path == wire_cc_path),
                       SourceFile(wire_cc_path, wire_cc_path.name))
        doc_text = (wire_doc_path.read_text(encoding="utf-8")
                    if wire_doc_path.exists() else "")
        doc_rel = (wire_doc_path.relative_to(root).as_posix()
                   if wire_doc_path.exists() else str(wire_doc_path))
        findings.extend(
            rule_wire_switch(wire_h, wire_cc, doc_text, doc_rel))
    return findings, annotations


def apply_suppressions(findings, annotations):
    """Split findings into (kept, suppressed); flag unused annotations."""
    by_key = {}
    for ann in annotations:
        for rule in ann.rules:
            for line in ann.covers:
                by_key.setdefault((ann.rel, line, rule), []).append(ann)
    kept, suppressed = [], []
    for f in findings:
        anns = by_key.get((f.rel, f.line, f.rule))
        if anns and f.rule != "bad-annotation":
            for ann in anns:
                ann.used = True
            suppressed.append(f)
        else:
            kept.append(f)
    for ann in annotations:
        if not ann.used and ann.reason:
            kept.append(Finding(
                ann.rel, ann.line, "bad-annotation",
                f"suppression for {', '.join(ann.rules)} matches no "
                f"finding — stale annotations must be removed"))
    return kept, suppressed


def run_lint(root, list_suppressions=False):
    files = scan_files(root)
    findings, annotations = run_rules(files, root)
    kept, suppressed = apply_suppressions(findings, annotations)
    for f in sorted(kept):
        print(f"{f.rel}:{f.line}: [{f.rule}] {f.msg}", file=sys.stderr)
    used = [a for a in annotations if a.used]
    if list_suppressions:
        for a in sorted(used, key=lambda a: (a.rel, a.line)):
            print(f"{a.rel}:{a.line}: allow({', '.join(a.rules)}) -- "
                  f"{a.reason}")
    print(f"check-invariants: {len(files)} files, "
          f"{len(kept)} finding(s), {len(suppressed)} suppressed by "
          f"{len(used)} reviewed annotation(s)")
    return 1 if kept else 0

# ---------------------------------------------------------- self-test


def _fixture_rule(stem):
    return stem.split("__")[0].replace("_", "-")


def self_test(root):
    fixture_dir = root / "tests" / "lint_fixture"
    if not fixture_dir.is_dir():
        print(f"self-test: missing {fixture_dir}", file=sys.stderr)
        return 1
    failures = []
    checked = 0

    def lint_fixture(path):
        """Run the single-file rules on one fixture as if it were src/."""
        src = SourceFile(path, "src/disttrack/" + path.name)
        findings = []
        annotations, bad = collect_annotations(src)
        findings.extend(bad)
        names = collect_unordered_names([src])
        findings.extend(rule_unordered_iter(src, names))
        findings.extend(rule_pointer_key(src))
        findings.extend(rule_meter_tap(src))
        findings.extend(rule_site_check(src))
        findings.extend(rule_banned_source(src))
        findings.extend(rule_simd_isolation(src))
        kept, suppressed = apply_suppressions(findings, annotations)
        return kept

    for path in sorted(fixture_dir.glob("*.cc")):
        stem = path.stem
        rule = _fixture_rule(stem)
        want_fail = "__fail" in stem
        kept = lint_fixture(path)
        got_rules = {f.rule for f in kept}
        checked += 1
        if want_fail and rule not in got_rules:
            failures.append(f"{path.name}: expected a {rule} finding, "
                            f"got {sorted(got_rules) or 'none'}")
        elif not want_fail and kept:
            failures.append(
                f"{path.name}: expected clean, got "
                + "; ".join(f"{f.rule}@{f.line}" for f in kept))

    for sub in sorted(fixture_dir.glob("wire_switch__*")):
        if not sub.is_dir():
            continue
        checked += 1
        wire_h = SourceFile(sub / "wire.h", f"{sub.name}/wire.h")
        wire_cc = SourceFile(sub / "wire.cc", f"{sub.name}/wire.cc")
        doc = (sub / "WIRE_PROTOCOL.md").read_text(encoding="utf-8")
        kept = rule_wire_switch(wire_h, wire_cc, doc,
                                f"{sub.name}/WIRE_PROTOCOL.md")
        if "__fail" in sub.name and not kept:
            failures.append(f"{sub.name}: expected wire-switch findings, "
                            f"got none")
        elif "__pass" in sub.name and kept:
            failures.append(f"{sub.name}: expected clean, got "
                            + "; ".join(f.msg for f in kept))

    # Every rule must have at least one failing fixture, or a rule
    # regression could never be caught.
    have_fail = {_fixture_rule(p.stem) for p in fixture_dir.glob("*__fail*")
                 if p.suffix == ".cc"}
    have_fail |= {"wire-switch"
                  for p in fixture_dir.glob("wire_switch__fail*")
                  if p.is_dir()}
    for rule in RULES:
        if rule not in have_fail:
            failures.append(f"no failing fixture exercises rule '{rule}'")

    for msg in failures:
        print(f"self-test: {msg}", file=sys.stderr)
    print(f"check-invariants self-test: {checked} fixture(s), "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0

# ---------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--all", action="store_true",
                        help="also run the doc-drift guard and the "
                             "tidy-baseline file guard")
    parser.add_argument("--self-test", action="store_true",
                        help="run the tests/lint_fixture suite")
    parser.add_argument("--list-suppressions", action="store_true",
                        help="print every active suppression annotation")
    parser.add_argument("--root", type=pathlib.Path, default=ROOT)
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root)

    rc = run_lint(args.root, list_suppressions=args.list_suppressions)

    if args.all:
        sys.path.insert(0, str(args.root / "scripts"))
        import check_doc_drift
        drift_rc = check_doc_drift.run()
        import tidy_ratchet
        tidy_rc = tidy_ratchet.verify_baseline_files(args.root)
        rc = rc or drift_rc or tidy_rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
