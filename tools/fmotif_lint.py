#!/usr/bin/env python3
"""Project-specific lint rules no generic tool knows.

Run from anywhere:  python3 tools/fmotif_lint.py [repo_root]
Exit status: 0 = clean, 1 = findings (one per line, file:line: [rule] msg).
Registered as the `fmotif_lint` CTest case and run by the CI lint job.

Rules
-----
locale-format
    The C library's printf("%f"/"%g"/"%e") and strtod/stod/atof honor
    the process-global LC_NUMERIC locale; a host application calling
    setlocale() would corrupt every number the library formats or
    parses (the PR-4 bug class). All data-plane number formatting and
    parsing in library code (src/) must go through util/numeric.*.
    Display-text call sites (stats tables, memory sizes — see the
    contract in util/numeric.h) carry an explicit file- or line-level
    suppression so the exemption is visible where it happens.

layer-dag
    A layer under src/ may include only its own headers and layers
    strictly below it in the documented DAG (src/CMakeLists.txt,
    docs/ARCHITECTURE.md):

        util -> geo -> core -> data/similarity/symbolic
             -> motif/cluster/join -> stream -> durable -> serve

    Peers on the same level must not include each other, and library
    code must never include the public aggregation headers
    (include/frechet_motif/...) — that edge points the other way.

stderr
    Library code must report failures through Status, not by writing
    to the process's stderr (a library cannot assume it owns the
    terminal). Raw fprintf(stderr)/std::cerr in src/ needs a
    suppression explaining why no Status channel exists at that point.

bare-mutex
    New locking in library code must use the annotated wrappers from
    util/mutex.h (Mutex, MutexLock, CondVar) so Clang's
    -Wthread-safety analysis can check the GUARDED_BY/FM_REQUIRES
    contracts. A raw std::mutex / std::lock_guard /
    std::condition_variable gives the analysis nothing to see.
    util/mutex.h itself is the one permitted wrapper site.

provider-dispatch
    The motif layer (src/motif/) reads ground distances only through
    DistanceProvider's virtuals: Distance() per cell, RowSpan() per DP
    row. The row view is the one dispatch, so a dynamic_cast there — a
    provider-specific fast path beside it — is flagged.

fuzz-seed
    Every randomized gtest suite (tests/*fuzz*_test.cc) must derive
    its randomness from test_util.h's FuzzSeed(), which prints the
    seed unconditionally — a fuzz failure that cannot be replayed with
    FMOTIF_FUZZ_SEED=<seed> is lost. Coverage-guided harnesses under
    tests/fuzz/ are corpus-driven (the input is the repro) and must
    define LLVMFuzzerTestOneInput instead.

Suppressions
------------
    // fmotif-lint: allow(<rule>) <justification>          (this line)
    // fmotif-lint-file: allow(<rule>) <justification>     (whole file)
"""

import re
import sys
from pathlib import Path

# Layer levels of the documented DAG. A file in layer L may include
# headers of any layer with a strictly smaller level, plus its own.
LAYER_LEVEL = {
    "util": 0,
    "geo": 1,
    "core": 2,
    "data": 3,
    "similarity": 3,
    "symbolic": 3,
    "motif": 4,
    "cluster": 4,
    "join": 4,
    "stream": 5,
    "durable": 6,
    "serve": 7,
}

LOCALE_PARSE_RE = re.compile(
    r"\b(?:std::)?(?:strtod|strtof|strtold|atof|stod|stof|stold|sscanf|"
    r"vsscanf|fscanf|scanf)\s*\("
)
# A printf-family call whose format string contains a locale-dependent
# floating-point conversion (%f/%e/%g/%a, any flags/width/precision).
PRINTF_CALL_RE = re.compile(
    r"\b(?:std::)?(?:printf|fprintf|snprintf|sprintf|vsnprintf|vsprintf)\s*\("
)
FLOAT_FMT_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')
FLOAT_CONV_RE = re.compile(r"%[-+ #0-9.*hlLqjzt]*[fFeEgGaA]")

STDERR_RE = re.compile(r"\bfprintf\s*\(\s*stderr\b|\bstd::cerr\b")

BARE_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(?:_any)?)\b"
)

DYNAMIC_CAST_RE = re.compile(r"\bdynamic_cast\s*<")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

ALLOW_LINE_RE = re.compile(r"fmotif-lint:\s*allow\(([a-z-]+)\)")
ALLOW_FILE_RE = re.compile(r"fmotif-lint-file:\s*allow\(([a-z-]+)\)")


def strip_comments(text):
    """Blanks out // and /* */ comments, preserving line structure and
    string literals (format strings must stay visible to the rules)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(c)
                out.append(nxt)
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


class Linter:
    def __init__(self, root):
        self.root = Path(root)
        self.findings = []

    def report(self, path, lineno, rule, message):
        rel = path.relative_to(self.root)
        self.findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    def lint_file(self, path, rules):
        raw = path.read_text(encoding="utf-8", errors="replace")
        file_allows = set(ALLOW_FILE_RE.findall(raw))
        raw_lines = raw.splitlines()
        code_lines = strip_comments(raw).splitlines()
        for idx, code in enumerate(code_lines):
            lineno = idx + 1
            raw_line = raw_lines[idx] if idx < len(raw_lines) else ""
            prev_raw = raw_lines[idx - 1] if idx > 0 else ""
            line_allows = set(
                ALLOW_LINE_RE.findall(raw_line) + ALLOW_LINE_RE.findall(prev_raw)
            )
            allows = file_allows | line_allows
            for rule in rules:
                if rule.NAME in allows:
                    continue
                rule(self, path, lineno, code)

    # ---- per-line rules -------------------------------------------------

    def rule_locale(self, path, lineno, code):
        if LOCALE_PARSE_RE.search(code):
            self.report(
                path, lineno, "locale-format",
                "locale-dependent number parsing in library code; use "
                "util/numeric.h (ParseDouble/from_chars)")
            return
        if PRINTF_CALL_RE.search(code):
            for fmt in FLOAT_FMT_RE.findall(code):
                if FLOAT_CONV_RE.search(fmt):
                    self.report(
                        path, lineno, "locale-format",
                        "locale-dependent %f/%g/%e formatting in library "
                        "code; use util/numeric.h (FormatDouble*)")
                    return

    rule_locale.NAME = "locale-format"

    def rule_stderr(self, path, lineno, code):
        if STDERR_RE.search(code):
            self.report(
                path, lineno, "stderr",
                "library code must report through Status, not stderr")

    rule_stderr.NAME = "stderr"

    def rule_bare_mutex(self, path, lineno, code):
        if BARE_MUTEX_RE.search(code):
            self.report(
                path, lineno, "bare-mutex",
                "raw std:: synchronization in library code is invisible to "
                "-Wthread-safety; use the annotated wrappers in util/mutex.h")

    rule_bare_mutex.NAME = "bare-mutex"

    def rule_provider_dispatch(self, path, lineno, code):
        if DYNAMIC_CAST_RE.search(code):
            self.report(
                path, lineno, "provider-dispatch",
                "dynamic_cast in the motif layer; read dG through "
                "DistanceProvider::RowSpan/Distance, the one dispatch")

    rule_provider_dispatch.NAME = "provider-dispatch"

    def make_layer_rule(self, layer):
        level = LAYER_LEVEL[layer]

        def rule(self, path, lineno, code):
            m = INCLUDE_RE.match(code)
            if not m:
                return
            target = m.group(1)
            if target.startswith("frechet_motif/"):
                self.report(
                    path, lineno, "layer-dag",
                    "library code must not include the public aggregation "
                    "headers (the edge points the other way)")
                return
            first = target.split("/", 1)[0]
            if first not in LAYER_LEVEL:
                return  # not a layer-rooted include (system/local header)
            if first != layer and LAYER_LEVEL[first] >= level:
                self.report(
                    path, lineno, "layer-dag",
                    f"layer '{layer}' (level {level}) must not include "
                    f"'{target}' (layer '{first}', level "
                    f"{LAYER_LEVEL[first]}) — see the DAG in "
                    "src/CMakeLists.txt")

        rule.NAME = "layer-dag"
        return rule

    # ---- per-file rules -------------------------------------------------

    def lint_fuzz_suite(self, path):
        text = path.read_text(encoding="utf-8", errors="replace")
        if "FuzzSeed(" not in text:
            self.report(
                path, 1, "fuzz-seed",
                "randomized fuzz suite does not derive its randomness from "
                "FuzzSeed() (tests/test_util.h), so failures print no "
                "replayable seed")

    def lint_fuzz_harness(self, path):
        text = path.read_text(encoding="utf-8", errors="replace")
        if "LLVMFuzzerTestOneInput" not in text:
            self.report(
                path, 1, "fuzz-seed",
                "fuzz harness does not define LLVMFuzzerTestOneInput")

    # ---- driver ---------------------------------------------------------

    def run(self):
        src = self.root / "src"
        for path in sorted(src.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            rel = path.relative_to(src)
            layer = rel.parts[0]
            rules = [Linter.rule_stderr]
            if layer in LAYER_LEVEL:
                rules.append(self.make_layer_rule(layer))
            if layer == "motif":
                rules.append(Linter.rule_provider_dispatch)
            # util/mutex.h is where the std:: primitives get wrapped.
            if not (layer == "util" and path.name == "mutex.h"):
                rules.append(Linter.rule_bare_mutex)
            # util/numeric.* is the one place locale-correct formatting
            # is implemented; everything else goes through it.
            if not (layer == "util" and path.stem == "numeric"):
                rules.append(Linter.rule_locale)
            self.lint_file(path, rules)

        tests = self.root / "tests"
        for path in sorted(tests.glob("*fuzz*_test.cc")):
            self.lint_fuzz_suite(path)
        fuzz_dir = tests / "fuzz"
        if fuzz_dir.is_dir():
            for path in sorted(fuzz_dir.glob("fuzz_*.cc")):
                self.lint_fuzz_harness(path)

        return self.findings


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"fmotif_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    findings = Linter(root).run()
    for f in findings:
        print(f)
    if findings:
        print(f"fmotif_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("fmotif_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
