#!/usr/bin/env python3
"""House lint for xvr. Zero third-party dependencies; runs on plain python3.

Rules (each suppressible per line with a `lint:<rule>-ok` comment):

  exceptions    No `throw` / `try` / `catch` outside the XML parser boundary
                (src/xml/xml_parser.cc). The library reports failures through
                xvr::Status / xvr::Result<T>; an exception anywhere else
                either aborts (we build without handlers) or silently skips
                the error plumbing.

  discard       No `(void)call(...)` casts. Status and Result<T> are
                [[nodiscard]], so the compiler already rejects a plainly
                ignored fallible call; the void-cast is the one escape hatch,
                and this rule closes it. Together they guarantee there is no
                XVR_RETURN_IF_ERROR-less Status call anywhere in the tree.
                (`(void)name;` for an unused binding is fine — only casts of
                call expressions are flagged.) Suppress with lint:discard-ok.

  raw-mutex     No std::mutex / std::lock_guard / std::unique_lock /
                std::scoped_lock / std::call_once outside common/mutex.h.
                Locking must go through xvr::Mutex / xvr::MutexLock so the
                Clang thread-safety analysis sees every acquisition.

  ordered-serde In functions whose name contains Save or Serialize (and
                everywhere in *serde* files), no range-for over a container
                declared as std::unordered_map/std::unordered_set or over an
                accessor returning one. Unordered iteration order leaks into
                persisted images and makes them nondeterministic. Suppress a
                deliberately order-insensitive loop with lint:ordered-ok.

  catalog-pin   In src/core and src/exec (outside the engine and the
                snapshot type itself), no direct call of the published-
                catalog accessor — `Catalog()` or `deps_.catalog(...)`.
                Query code must read the one snapshot
                pinned in its ExecutionContext; a second accessor call mid-
                query could observe a *different* snapshot and mix two
                catalog versions in one answer. The pipeline's pin sites
                (exactly one per query) carry lint:catalog-pin-ok.

  span          No WallTimer in src/core, src/exec or src/rewrite. Serving-
                path stages time themselves with trace spans (obs/trace.h:
                ScopedSpan / XVR_SPAN), which land the same measurement in
                the per-query trace and the stage histograms; a bare
                WallTimer measures but records nowhere. Suppress with
                lint:span-ok (e.g. for setup code that never serves).

  deadline      In src/core and src/exec, a function on the limit-carrying
                serving path (one that mentions QueryLimits or
                ExecutionContext) must not contain a for/while loop without
                any deadline check (CheckInterrupted, InterruptTicker::Tick,
                or Deadline::Expired) in the same function. Keeps new
                blocking loops from creeping into the serving path
                unchecked. The rule is function-scoped: a lint:deadline-ok
                comment anywhere in the function suppresses it (use for
                loops that only fan work out to already-checked callees).

  env-io        In src/storage and src/core (plus common/file_util), no raw
                filesystem I/O — std::ofstream/ifstream/fstream, fopen,
                ::rename/::remove/::unlink. Persistence must go through the
                storage Env (storage/env.h): that is where the fsync
                ordering lives, what the crash-consistency tests can cut
                power on, and what the metering wraps — a raw stream write
                silently bypasses all three. The PosixEnv implementation
                itself (storage/env.cc) is the one allowed user of the
                syscalls; elsewhere suppress with lint:env-io-ok only for
                I/O that genuinely cannot take an Env.

  hot-alloc     In src/exec, src/rewrite and src/vfilter .cc files, no
                declaration of an
                associative container (std::unordered_map/set, std::map/set)
                or an owning std::vector inside a for/while body. A container
                constructed per loop iteration on the serving path is a
                malloc per fragment/node — the hot-path memory architecture
                routes those through the per-query arena / reused scratch
                (common/arena.h, RewriteScratch, AssignmentSet) instead.
                References/pointers to containers are fine. Cold paths
                (setup, image loading) suppress with lint:hot-alloc-ok on
                the declaration or the line above; whole cold files go in
                HOT_ALLOC_ALLOWLIST.

  publish-hook  In src/**.cc, a function that installs a published
                CatalogSnapshot (assigns `catalog_`) must run the plan
                cache's targeted-invalidation sweep — mention
                OnCatalogPublish — in the same function. A raw install
                would leave cached plans keyed to a catalog that no longer
                exists (the under-invalidation the dependency tracker rules
                out). The one legitimate raw install (the engine
                constructor, before the cache exists) carries
                lint:publish-hook-ok.

  temp-path     In tests/, no ::testing::TempDir() outside tests/test_util.h,
                and no string literal starting with "/tmp/". ctest runs
                every test case as its own process, in parallel, so a fixed
                file name under the temp directory lets cases overwrite
                each other's files. TestTempPath (test_util.h) names the
                file after the test and the process instead.

Usage: scripts/lint.py [root]   (root defaults to the repo checkout)
Exit status 0 when clean, 1 with one "file:line: [rule] message" per finding.
"""

import pathlib
import re
import sys

EXCEPTION_ALLOWLIST = {"src/xml/xml_parser.cc"}
RAW_MUTEX_ALLOWLIST = {"src/common/mutex.h"}

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|call_once|once_flag)\b")
THROW_TRY_RE = re.compile(r"(^|[^\w])(throw\b|try\s*\{|catch\s*\()")
VOID_DISCARD_RE = re.compile(r"\(void\)\s*[\w:\.\->]*\w\s*\(")
SUPPRESS_RE = re.compile(r"lint:([a-z-]+)-ok")

CATALOG_PIN_DIRS = ("src/core/", "src/exec/")
CATALOG_PIN_ALLOWLIST = {
    "src/core/engine.h", "src/core/engine.cc",
    "src/core/catalog.h", "src/core/catalog.cc",
}
CATALOG_PIN_RE = re.compile(
    r"(?<!\w)Catalog\s*\(\s*\)|deps_\.catalog\s*\(|catalog_\.load\s*\(")

SPAN_DIRS = ("src/core/", "src/exec/", "src/rewrite/")
SPAN_RE = re.compile(r"\bWallTimer\b")

DEADLINE_DIRS = ("src/core/", "src/exec/")
DEADLINE_CARRIER_RE = re.compile(r"\b(QueryLimits|ExecutionContext)\b")
DEADLINE_CHECK_RE = re.compile(r"CheckInterrupted|\.Tick\(|Expired\(")
LOOP_RE = re.compile(r"^\s*(?:for|while)\s*\(")
SEGMENT_KEYWORDS = ("if", "for", "while", "switch", "return", "case", "#",
                    "}", "namespace", "class", "struct", "using", "typedef",
                    "static_assert", "//")

PUBLISH_INSTALL_RE = re.compile(r"\bcatalog_\s*=[^=]")

ENV_IO_DIRS = ("src/storage/", "src/core/")
ENV_IO_EXTRA_FILES = {"src/common/file_util.cc", "src/common/file_util.h"}
ENV_IO_ALLOWLIST = {"src/storage/env.cc"}
ENV_IO_RE = re.compile(
    r"std::(?:ofstream|ifstream|fstream)\b|\bfopen\s*\(|"
    r"(?:\bstd)?::rename\s*\(|(?:\bstd)?::remove\s*\(|\bunlink\s*\(")

TEMP_PATH_DIR = "tests/"
TEMP_PATH_ALLOWLIST = {"tests/test_util.h"}
TEMP_PATH_RE = re.compile(r"\bTempDir\s*\(")
TMP_LITERAL_RE = re.compile(r'"/tmp/')

HOT_ALLOC_DIRS = ("src/exec/", "src/rewrite/", "src/vfilter/")
# Cold-path files exempt wholesale (none today; prefer line suppressions so
# new hot code in a mixed file still gets checked).
HOT_ALLOC_ALLOWLIST = set()
# An owning declaration: optional const, the container type, then a name —
# no & / * between type and name (references and pointers don't allocate).
HOT_ALLOC_DECL_RE = re.compile(
    r"^\s+(?:const\s+)?std::(?:unordered_map|unordered_set|map|set|multimap|"
    r"multiset|vector)\s*<[^;&]*>\s+\w+\s*[;={(]")

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>[&\s]+(\w+)\s*[;={(]")
RANGE_FOR_RE = re.compile(r"for\s*\(.*?:\s*([\w:\.\->]+(?:\(\))?)\s*\)")
FUNC_DEF_RE = re.compile(r"^[\w:<>,&*\s\[\]]*?\b([\w~]+)\s*\([^;]*$|"
                         r"^[\w:<>,&*\s\[\]]*?\b([\w~]+)\s*\(.*\)\s*(?:const\s*)?\{")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving newlines and
    column positions (so line/suppression lookups stay aligned)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_unordered_names(files):
    """Names of variables/members declared with an unordered container type,
    and of accessors returning one (e.g. `pred_ids()`)."""
    names = set()
    for path, code in files:
        for match in UNORDERED_DECL_RE.finditer(code):
            names.add(match.group(1))
        for match in re.finditer(
                r"std::unordered_(?:map|set)\s*<[^;{}]*?>\s*&?\s*(\w+)\s*\(\s*\)",
                code):
            names.add(match.group(1))
    names.discard("if")
    names.discard("for")
    return names


def base_identifier(expr: str) -> str:
    """`store_.fragments_` -> fragments_, `filter.pred_ids()` -> pred_ids."""
    expr = expr.rstrip("()")
    for sep in (".", "->", "::"):
        if sep in expr:
            expr = expr.rsplit(sep, 1)[1]
    return expr


def current_function_at(code_lines, lineno):
    """Best-effort name of the function containing `lineno` (1-based)."""
    for i in range(lineno - 1, -1, -1):
        line = code_lines[i]
        match = re.match(r"^[\w:<>,&*~\s\[\]]+?\b(\w+)\s*\(", line)
        if match and not line.lstrip().startswith(("if", "for", "while",
                                                   "switch", "return")):
            return match.group(1)
    return ""


def lint_deadline(rel, raw_lines, code_lines, findings):
    """Serving-path functions (src/core, src/exec) that carry QueryLimits or
    an ExecutionContext must check the deadline somewhere if they loop."""
    if not rel.startswith(DEADLINE_DIRS) or not rel.endswith(".cc"):
        return
    # Top-level definitions start at column 0 and open a parameter list;
    # everything up to the next such line is one function's segment.
    starts = [i for i, line in enumerate(code_lines)
              if line and not line[0].isspace() and "(" in line
              and not line.lstrip().startswith(SEGMENT_KEYWORDS)]
    starts.append(len(code_lines))
    for a, b in zip(starts, starts[1:]):
        segment = "\n".join(code_lines[a:b])
        if not DEADLINE_CARRIER_RE.search(segment):
            continue  # not on the limit-carrying serving path
        if DEADLINE_CHECK_RE.search(segment):
            continue
        loops = [i for i in range(a, b) if LOOP_RE.match(code_lines[i])]
        if not loops:
            continue
        if any("lint:deadline-ok" in raw_lines[i]
               for i in range(a, min(b, len(raw_lines)))):
            continue
        findings.append((rel, loops[0] + 1, "deadline",
                         "loop on the serving path without a deadline "
                         "check; add CheckInterrupted/InterruptTicker "
                         "(common/deadline.h) or lint:deadline-ok"))


def lint_publish_hook(rel, raw_lines, code_lines, findings):
    """Functions that install a published CatalogSnapshot (assign catalog_)
    must also run the PlanCache publish sweep (OnCatalogPublish), so no
    publish path can leave dependency-tracked plans unswept."""
    if not rel.startswith("src/") or not rel.endswith(".cc"):
        return
    starts = [i for i, line in enumerate(code_lines)
              if line and not line[0].isspace() and "(" in line
              and not line.lstrip().startswith(SEGMENT_KEYWORDS)]
    starts.append(len(code_lines))
    for a, b in zip(starts, starts[1:]):
        installs = [i for i in range(a, b)
                    if PUBLISH_INSTALL_RE.search(code_lines[i])]
        if not installs:
            continue
        if "OnCatalogPublish" in "\n".join(code_lines[a:b]):
            continue
        if any("lint:publish-hook-ok" in raw_lines[i]
               for i in range(a, min(b, len(raw_lines)))):
            continue
        findings.append((rel, installs[0] + 1, "publish-hook",
                         "catalog snapshot installed without the plan "
                         "cache publish sweep; call "
                         "PlanCache::OnCatalogPublish on this path (or "
                         "lint:publish-hook-ok if the cache cannot exist "
                         "yet)"))


def lint_hot_alloc(rel, raw_lines, code_lines, findings):
    """Container constructed per loop iteration in src/exec or src/rewrite:
    a malloc on the serving hot path. Tracks brace depth to know when we are
    inside a for/while body."""
    if not rel.startswith(HOT_ALLOC_DIRS) or not rel.endswith(".cc"):
        return
    if rel in HOT_ALLOC_ALLOWLIST:
        return
    depth = 0
    loop_bodies = []  # brace depths at which a loop body opened
    # Loop-header state machine: HEADER while inside the for/while parens,
    # BODY once they balance. A `{` in BODY state opens a tracked loop body;
    # any other token there means a brace-less single-statement body, which
    # opens no scope.
    NONE, HEADER, BODY = 0, 1, 2
    state = NONE
    paren = 0
    for lineno, line in enumerate(code_lines, 1):
        if state == NONE and LOOP_RE.match(line):
            state = HEADER
            paren = 0
        if loop_bodies and state == NONE and HOT_ALLOC_DECL_RE.match(line):
            here = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
            above = raw_lines[lineno - 2] if lineno >= 2 else ""
            if "lint:hot-alloc-ok" not in here and \
                    "lint:hot-alloc-ok" not in above:
                findings.append((rel, lineno, "hot-alloc",
                                 "container constructed inside a hot loop; "
                                 "use the per-query arena / reused scratch "
                                 "(common/arena.h, RewriteScratch, "
                                 "AssignmentSet) or lint:hot-alloc-ok for "
                                 "cold paths"))
        for ch in line:
            if state == HEADER:
                if ch == "(":
                    paren += 1
                elif ch == ")":
                    paren -= 1
                    if paren == 0:
                        state = BODY
                continue
            if state == BODY:
                if ch in " \t":
                    continue
                state = NONE
                if ch == "{":
                    depth += 1
                    loop_bodies.append(depth)
                    continue
                # Brace-less body: single statement, falls through as code.
            if ch == "{":
                depth += 1
            elif ch == "}":
                if loop_bodies and loop_bodies[-1] == depth:
                    loop_bodies.pop()
                depth -= 1


def lint_file(rel, raw, code, unordered_names, findings):
    raw_lines = raw.splitlines()
    code_lines = code.splitlines()

    def suppressed(lineno, rule):
        line = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
        return f"lint:{rule}-ok" in line

    for lineno, line in enumerate(code_lines, 1):
        if rel not in EXCEPTION_ALLOWLIST and THROW_TRY_RE.search(line):
            if not suppressed(lineno, "exceptions"):
                findings.append((rel, lineno, "exceptions",
                                 "throw/try/catch outside the XML parser "
                                 "boundary; use xvr::Status"))
        if rel not in RAW_MUTEX_ALLOWLIST and RAW_MUTEX_RE.search(line):
            if not suppressed(lineno, "raw-mutex"):
                findings.append((rel, lineno, "raw-mutex",
                                 "use xvr::Mutex / xvr::MutexLock "
                                 "(common/mutex.h) so the thread-safety "
                                 "analysis sees the lock"))
        if VOID_DISCARD_RE.search(line):
            if not suppressed(lineno, "discard"):
                findings.append((rel, lineno, "discard",
                                 "(void)-discarded call; handle the result "
                                 "or XVR_RETURN_IF_ERROR it"))
        if rel.startswith(SPAN_DIRS) and SPAN_RE.search(line):
            if not suppressed(lineno, "span"):
                findings.append((rel, lineno, "span",
                                 "WallTimer on the serving path; time stages "
                                 "with ScopedSpan/XVR_SPAN (obs/trace.h) so "
                                 "the measurement lands in the trace and "
                                 "stage histograms (or lint:span-ok)"))
        if ((rel.startswith(ENV_IO_DIRS) or rel in ENV_IO_EXTRA_FILES)
                and rel not in ENV_IO_ALLOWLIST
                and ENV_IO_RE.search(line)):
            if not suppressed(lineno, "env-io"):
                findings.append((rel, lineno, "env-io",
                                 "raw filesystem I/O outside the storage Env; "
                                 "route it through Env (storage/env.h) so the "
                                 "fsync ordering, the crash-point exploration "
                                 "and the storage metering all see it (or "
                                 "lint:env-io-ok)"))
        if (rel.startswith(TEMP_PATH_DIR)
                and rel not in TEMP_PATH_ALLOWLIST
                and TEMP_PATH_RE.search(line)):
            if not suppressed(lineno, "temp-path"):
                findings.append((rel, lineno, "temp-path",
                                 "fixed path under TempDir(); parallel test "
                                 "processes share it. Use TestTempPath "
                                 "(tests/test_util.h)"))
        # Literals are blanked in `line` but keep their opening quote, so a
        # match in the raw text is a literal when `line` has a quote there.
        raw_line = raw_lines[lineno - 1]
        if (rel.startswith(TEMP_PATH_DIR)
                and any(line[m.start()] == '"'
                        for m in TMP_LITERAL_RE.finditer(raw_line))):
            if not suppressed(lineno, "temp-path"):
                findings.append((rel, lineno, "temp-path",
                                 "fixed \"/tmp/\" path; parallel test "
                                 "processes share it. Use TestTempPath "
                                 "(tests/test_util.h)"))
        if (rel.startswith(CATALOG_PIN_DIRS)
                and rel not in CATALOG_PIN_ALLOWLIST
                and CATALOG_PIN_RE.search(line)):
            if not suppressed(lineno, "catalog-pin"):
                findings.append((rel, lineno, "catalog-pin",
                                 "direct published-catalog access outside "
                                 "the per-query pin; read the snapshot in "
                                 "ExecutionContext::catalog instead (or "
                                 "lint:catalog-pin-ok at a pin site)"))

    in_serde_file = "serde" in pathlib.PurePosixPath(rel).name
    for lineno, line in enumerate(code_lines, 1):
        match = RANGE_FOR_RE.search(line)
        if not match:
            continue
        if base_identifier(match.group(1)) not in unordered_names:
            continue
        func = current_function_at(code_lines, lineno)
        if in_serde_file or "Save" in func or "Serialize" in func:
            if not suppressed(lineno, "ordered"):
                findings.append((rel, lineno, "ordered-serde",
                                 "iterating an unordered container in a "
                                 "serialization path makes output "
                                 "nondeterministic; sort keys first"))


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                        else pathlib.Path(__file__).resolve().parent.parent)
    files = []
    for subdir in ("src", "tests", "bench", "examples"):
        for path in sorted((root / subdir).rglob("*")):
            if path.suffix in (".cc", ".h") and path.is_file():
                raw = path.read_text(encoding="utf-8")
                files.append((path.relative_to(root).as_posix(), raw,
                              strip_comments_and_strings(raw)))

    unordered_names = collect_unordered_names(
        [(rel, code) for rel, _, code in files if rel.startswith("src/")])

    findings = []
    for rel, raw, code in files:
        lint_file(rel, raw, code, unordered_names, findings)
        lint_deadline(rel, raw.splitlines(), code.splitlines(), findings)
        lint_hot_alloc(rel, raw.splitlines(), code.splitlines(), findings)
        lint_publish_hook(rel, raw.splitlines(), code.splitlines(),
                          findings)

    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"lint.py: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint.py: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
