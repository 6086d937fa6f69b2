#!/usr/bin/env python3
"""vtm_lint: repo-specific determinism & concurrency lint for the VTM tree.

Enforces the project rules that generic tools (clang-tidy, -Wthread-safety,
sanitizers) cannot express:

  unordered-fp-iteration
      No range-for over an unordered container whose body accumulates
      floating-point values (`+=`/`-=`). Hash iteration order is
      implementation- and seed-dependent, so such a sum is nondeterministic
      across platforms — the fleet engine's bitwise-reproducibility
      guarantees (DESIGN.md §10) forbid it. Iterate a sorted/indexed
      container instead, or sort keys first.

  raw-random
      No `rand`/`srand`, `std::random_device`, standard engine types
      (`std::mt19937`, ...), or wall-clock seeding (`std::time`) outside
      `src/util/rng.*`. All randomness flows through `util::rng` so that a
      (seed, config) pair fully determines a run.

  mutex-guarded-by
      Every mutex member (`std::mutex` or `util::mutex`) must have at least
      one `VTM_GUARDED_BY(<name>)` annotation on the data it protects in the
      same file — an unannotated mutex is invisible to Clang's thread-safety
      analysis, which silently un-checks everything it guards.

  config-validate
      Files implementing `vtm::core` / `vtm::sim` that define functions
      taking a `*_config&` must validate: the file has to contain a
      `VTM_EXPECTS(` contract or call/define a `validate*` helper. Public
      entry points must reject bad configs with `util::contract_error`, not
      propagate NaNs into a million-vehicle run. Additionally, every
      `run_*`-named definition taking a `*_config&` (run_fleet_scenario,
      run_streaming_fleet, ...) must validate *inside its own body* — a
      validate call elsewhere in the file does not protect an entry point a
      caller reaches directly.

  config-coverage
      Every `double` or `util::` quantity member of `fleet_config` and
      `streaming_config` must be read in `validate_fleet_config` or
      `validate_streaming_config`. A parameter the validators never look at
      passes any value, and a NaN or out-of-range one then fails a
      precondition deep inside the run, or silently empties it. The
      validators are taken from the scanned file when it defines them, else
      from the tree's src/. A member that is valid at every value carries
      `// vtm-lint: allow(config-coverage)` with the reason.

  raw-io
      No direct console output (`std::cout`/`std::cerr`/`std::clog`, the
      printf family, `puts`/`putchar`) anywhere in `src/` — library code
      reports through returned results and the caller-attached telemetry
      sinks, so embedders and the bench own every byte the process prints.
      `std::snprintf` into a buffer is formatting, not I/O, and is not
      flagged. Benches, examples, tests, and tools keep their stdout.

A finding can be suppressed where it is intentional with a trailing or
preceding-line comment:  // vtm-lint: allow(<rule-id>)

Modes:
  vtm_lint.py --root DIR              scan the tree, exit 1 on findings
  vtm_lint.py --root DIR --self-test  prove each rule fires on its fixture
                                      in tools/lint_fixtures/, then scan the
                                      tree (fixtures excluded); exit 1 on
                                      any self-test failure or tree finding
  vtm_lint.py FILE...                 scan specific files
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

RULES = (
    "unordered-fp-iteration",
    "raw-random",
    "mutex-guarded-by",
    "config-validate",
    "unit-suffix",
    "config-coverage",
    "raw-io",
)

SCAN_DIRS = ("src", "bench", "examples", "tests", "tools")
EXTENSIONS = {".hpp", ".cpp", ".h", ".cc"}
# The RNG facade is the one place the standard engines may appear.
RAW_RANDOM_ALLOWED = {"src/util/rng.hpp", "src/util/rng.cpp"}

ALLOW_RE = re.compile(r"vtm-lint:\s*allow\(([a-z-]+)\)")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line breaks
    so reported line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (min(j, n - 1) - i - 1) + quote)
            i = min(j, n - 1) + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def suppressed(raw_lines: list[str], line_no: int, rule: str) -> bool:
    """True when line `line_no` (1-based) or the line above carries an
    allow(<rule>) marker."""
    for idx in (line_no - 1, line_no - 2):
        if 0 <= idx < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[idx])
            if m and m.group(1) == rule:
                return True
    return False


# ---- rule: unordered-fp-iteration -------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s*[&*]?\s*(\w+)"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;)]*?:\s*([^)]+)\)")
FP_ACCUMULATE_RE = re.compile(r"[+\-]=")


def loop_body(lines: list[str], start: int, limit: int = 120) -> str:
    """Heuristic extent of the loop starting at `start` (0-based): up to the
    matching close brace, or the next statement for braceless loops."""
    depth = 0
    seen_brace = False
    body: list[str] = []
    for idx in range(start, min(start + limit, len(lines))):
        line = lines[idx]
        body.append(line)
        depth += line.count("{") - line.count("}")
        if "{" in line:
            seen_brace = True
        if seen_brace and depth <= 0:
            break
        if not seen_brace and line.rstrip().endswith(";"):
            break  # braceless single-statement loop
    return "\n".join(body)


def check_unordered_fp_iteration(path: Path, raw: list[str],
                                 clean: list[str]) -> list[Finding]:
    text = "\n".join(clean)
    unordered_vars = set(UNORDERED_DECL_RE.findall(text))
    findings = []
    for i, line in enumerate(clean):
        m = RANGE_FOR_RE.search(line)
        if not m:
            continue
        target = m.group(1)
        over_unordered = "unordered_" in target or any(
            re.search(rf"\b{re.escape(v)}\b", target) for v in unordered_vars
        )
        if not over_unordered:
            continue
        if FP_ACCUMULATE_RE.search(loop_body(clean, i)):
            if not suppressed(raw, i + 1, "unordered-fp-iteration"):
                findings.append(Finding(
                    path, i + 1, "unordered-fp-iteration",
                    f"range-for over unordered container `{target.strip()}` "
                    "feeds an accumulation; hash order is nondeterministic — "
                    "iterate a sorted/indexed container instead"))
    return findings


# ---- rule: raw-random --------------------------------------------------------

RAW_RANDOM_RE = re.compile(
    r"(std::rand\b|\bsrand\s*\(|\brand\s*\(|std::random_device"
    r"|std::mt19937|std::minstd_rand|std::default_random_engine"
    r"|std::time\s*\(|\btime\s*\(\s*(?:0|NULL|nullptr)\s*\))"
)


def check_raw_random(path: Path, rel: str, raw: list[str],
                     clean: list[str]) -> list[Finding]:
    if rel in RAW_RANDOM_ALLOWED:
        return []
    findings = []
    for i, line in enumerate(clean):
        m = RAW_RANDOM_RE.search(line)
        if m and not suppressed(raw, i + 1, "raw-random"):
            findings.append(Finding(
                path, i + 1, "raw-random",
                f"`{m.group(1).strip()}` outside util::rng — all randomness "
                "must flow through the seeded util::rng facade"))
    return findings


# ---- rule: raw-io ------------------------------------------------------------
#
# `\bprintf` deliberately does not match `snprintf`/`vsnprintf` (no word
# boundary after the `n`): formatting into a caller's buffer is fine, only
# writing to a stream/FILE* from library code is not.

RAW_IO_RE = re.compile(
    r"(std::cout|std::cerr|std::clog"
    r"|\b(?:std::)?(?:printf|fprintf|vprintf|vfprintf|puts|fputs|putchar"
    r"|fputc)\s*\()"
)


def check_raw_io(path: Path, rel: str, raw: list[str],
                 clean: list[str]) -> list[Finding]:
    library = rel.startswith("src/")
    fixture = "lint_fixtures" in rel
    if not (library or fixture):
        return []
    findings = []
    for i, line in enumerate(clean):
        m = RAW_IO_RE.search(line)
        if m and not suppressed(raw, i + 1, "raw-io"):
            findings.append(Finding(
                path, i + 1, "raw-io",
                f"`{m.group(1).strip().rstrip('(').strip()}` in library code "
                "— src/ reports through returned results or the "
                "caller-attached telemetry sinks, never a raw stream"))
    return findings


# ---- rule: mutex-guarded-by --------------------------------------------------

MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:vtm::util::|util::|std::)?mutex\s+(\w+)\s*;"
)


def check_mutex_guarded_by(path: Path, raw: list[str],
                           clean: list[str]) -> list[Finding]:
    text = "\n".join(clean)
    findings = []
    for i, line in enumerate(clean):
        m = MUTEX_DECL_RE.match(line)
        if not m:
            continue
        name = m.group(1)
        if re.search(rf"GUARDED_BY\(\s*{re.escape(name)}\s*\)", text):
            continue
        if not suppressed(raw, i + 1, "mutex-guarded-by"):
            findings.append(Finding(
                path, i + 1, "mutex-guarded-by",
                f"mutex member `{name}` has no VTM_GUARDED_BY({name}) "
                "annotation on the data it protects — the thread-safety "
                "analysis cannot check an unannotated mutex"))
    return findings


# ---- rule: config-validate ---------------------------------------------------

CORE_SIM_NS_RE = re.compile(r"^namespace vtm::(?:core|sim)\b", re.MULTILINE)
CONFIG_PARAM_FN_RE = re.compile(
    r"\b[\w:~]+\s*\([^()]*\w+_config\s*&[^()]*\)[\s\w]*\{"
)
# A run_*-named definition consuming a *_config& — the repo's convention for
# public scenario entry points (run_fleet_scenario, run_streaming_fleet, ...).
RUN_ENTRY_RE = re.compile(
    r"\b(run_\w+)\s*\([^()]*\w+_config\s*&[^()]*\)\s*(?:const\s*)?\{"
)
VALIDATES_RE = re.compile(r"VTM_EXPECTS\s*\(|validate\w*\s*\(")


def brace_body(text: str, open_idx: int) -> str:
    """Text from the `{` at `open_idx` through its matching close brace
    (comments/strings already blanked, so brace counting is exact)."""
    depth = 0
    for j in range(open_idx, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return text[open_idx:j + 1]
    return text[open_idx:]


# ---- rule: unit-suffix -------------------------------------------------------
#
# A raw `double` (or vector<double>) member whose name carries a unit suffix
# inside a public config/params struct defeats the dimensional type system:
# call sites can assign any number to it without saying what unit it is in.
# New suffixed members must be typed quantities (util/quantity.hpp) — or
# carry an explicit `// vtm-lint: allow(unit-suffix)` when they sit on the
# raw-double side of the boundary on purpose (records, hot engine state).

CONFIG_STRUCT_RE = re.compile(r"\bstruct\s+(\w+_(?:config|params))\b[^;{]*{")
UNIT_SUFFIX_MEMBER_RE = re.compile(
    r"^\s*(?:std::vector\s*<\s*double\s*>|double)\s+"
    r"(\w+_(?:m|s|mps|mhz|dbm|mb|db|mb_s|per_s))\s*[;={]",
)


def check_unit_suffix(path: Path, raw: list[str],
                      clean: list[str]) -> list[Finding]:
    text = "\n".join(clean)
    findings = []
    for m in CONFIG_STRUCT_RE.finditer(text):
        struct_name = m.group(1)
        body = brace_body(text, m.end() - 1)
        body_start_line = text.count("\n", 0, m.end() - 1)
        for offset, line in enumerate(body.splitlines()):
            member = UNIT_SUFFIX_MEMBER_RE.match(line)
            if not member:
                continue
            line_no = body_start_line + offset + 1
            if suppressed(raw, line_no, "unit-suffix"):
                continue
            findings.append(Finding(
                path, line_no, "unit-suffix",
                f"`{struct_name}::{member.group(1)}` is a raw double with a "
                "unit suffix — public config fields must use a typed "
                "quantity (util/quantity.hpp) so call sites cannot assign "
                "a number in the wrong unit"))
    return findings


# ---- rule: config-coverage ---------------------------------------------------

COVERED_STRUCT_RE = re.compile(
    r"\bstruct\s+(fleet_config|streaming_config)\b[^;{]*{")
VALIDATOR_RE = re.compile(
    r"\bvalidate_(?:fleet|streaming)_config\s*\([^()]*\)\s*\{")
QUANTITY_ALIAS_RE = re.compile(r"^using\s+(\w+)\s*=\s*quantity<", re.MULTILINE)


@functools.lru_cache(maxsize=None)
def quantity_aliases(root: Path) -> frozenset[str]:
    """The `util::` quantity type names declared in src/util/quantity.hpp."""
    header = root / "src" / "util" / "quantity.hpp"
    try:
        return frozenset(QUANTITY_ALIAS_RE.findall(header.read_text()))
    except OSError:
        return frozenset()


def validator_bodies(text: str) -> str:
    """The bodies of every validate_{fleet,streaming}_config definition in
    `text` (comments and strings already blanked)."""
    return "\n".join(brace_body(text, m.end() - 1)
                     for m in VALIDATOR_RE.finditer(text))


@functools.lru_cache(maxsize=None)
def tree_validator_bodies(root: Path) -> str:
    bodies = []
    for path in sorted((root / "src").rglob("*.cpp")):
        text = strip_comments_and_strings(
            path.read_text(encoding="utf-8", errors="replace"))
        bodies.append(validator_bodies(text))
    return "\n".join(bodies)


def check_config_coverage(path: Path, root: Path, raw: list[str],
                          clean: list[str]) -> list[Finding]:
    text = "\n".join(clean)
    structs = list(COVERED_STRUCT_RE.finditer(text))
    if not structs:
        return []
    validated = validator_bodies(text) or tree_validator_bodies(root.resolve())
    types = "|".join(sorted(quantity_aliases(root.resolve())))
    member_re = re.compile(
        rf"^\s*(?:double|(?:vtm::)?util::(?:{types}))\s+(\w+)\s*[;={{]")
    findings = []
    for m in structs:
        body = brace_body(text, m.end() - 1)
        body_start_line = text.count("\n", 0, m.end() - 1)
        for offset, line in enumerate(body.splitlines()):
            member = member_re.match(line)
            if not member:
                continue
            name = member.group(1)
            if re.search(rf"\b{re.escape(name)}\b", validated):
                continue
            line_no = body_start_line + offset + 1
            if suppressed(raw, line_no, "config-coverage"):
                continue
            findings.append(Finding(
                path, line_no, "config-coverage",
                f"`{m.group(1)}::{name}` is never read by "
                "validate_fleet_config or validate_streaming_config — "
                "reject its out-of-range values there, or mark it "
                "`vtm-lint: allow(config-coverage)` with the reason"))
    return findings


def check_config_validate(path: Path, raw: list[str],
                          clean: list[str]) -> list[Finding]:
    if path.suffix not in (".cpp", ".cc"):
        return []
    text = "\n".join(clean)
    if not CORE_SIM_NS_RE.search(text):
        return []
    findings = []
    # Per-entry sub-rule: each run_*(*_config&) body must validate itself — a
    # contract elsewhere in the file does not cover a directly-called entry.
    for m in RUN_ENTRY_RE.finditer(text):
        if VALIDATES_RE.search(brace_body(text, m.end() - 1)):
            continue
        line_no = text.count("\n", 0, m.start()) + 1
        if suppressed(raw, line_no, "config-validate"):
            continue
        findings.append(Finding(
            path, line_no, "config-validate",
            f"`{m.group(1)}` takes a *_config& but its body neither checks "
            "VTM_EXPECTS nor calls a validate helper — every run_* entry "
            "point must reject invalid configs itself"))
    # File-level rule: any other *_config& definition obliges the file to
    # validate somewhere.
    m = CONFIG_PARAM_FN_RE.search(text)
    if not m or VALIDATES_RE.search(text):
        return findings
    line_no = text.count("\n", 0, m.start()) + 1
    if suppressed(raw, line_no, "config-validate"):
        return findings
    findings.append(Finding(
        path, line_no, "config-validate",
        "defines a *_config& entry point but neither checks VTM_EXPECTS nor "
        "calls a validate helper — public core/sim entry points must reject "
        "invalid configs with util::contract_error"))
    return findings


# ---- driver ------------------------------------------------------------------

def scan_file(path: Path, root: Path) -> list[Finding]:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        print(f"vtm_lint: cannot read {path}: {err}", file=sys.stderr)
        return []
    raw = text.splitlines()
    clean = strip_comments_and_strings(text).splitlines()
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    findings = []
    findings += check_unordered_fp_iteration(path, raw, clean)
    findings += check_raw_random(path, rel, raw, clean)
    findings += check_mutex_guarded_by(path, raw, clean)
    findings += check_config_validate(path, raw, clean)
    findings += check_unit_suffix(path, raw, clean)
    findings += check_config_coverage(path, root, raw, clean)
    findings += check_raw_io(path, rel, raw, clean)
    return findings


def tree_files(root: Path, include_fixtures: bool = False) -> list[Path]:
    files = []
    for sub in SCAN_DIRS:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in EXTENSIONS:
                continue
            if not include_fixtures and "lint_fixtures" in path.parts:
                continue
            files.append(path)
    return files


def run_self_test(root: Path) -> int:
    fixtures = root / "tools" / "lint_fixtures"
    failures = 0
    for rule in RULES:
        fixture = fixtures / f"fail_{rule.replace('-', '_')}.cpp"
        if not fixture.is_file():
            print(f"self-test FAIL: missing fixture {fixture}")
            failures += 1
            continue
        fired = {f.rule for f in scan_file(fixture, root)}
        if fired != {rule}:
            print(f"self-test FAIL: {fixture.name} fired {sorted(fired) or 'nothing'}, "
                  f"expected exactly [{rule}]")
            failures += 1
        else:
            print(f"self-test ok: {rule} fires on {fixture.name}")
    # The suppression mechanism must actually suppress.
    suppress_fixture = fixtures / "pass_suppressed.cpp"
    if suppress_fixture.is_file():
        fired = {f.rule for f in scan_file(suppress_fixture, root)}
        if fired:
            print(f"self-test FAIL: {suppress_fixture.name} fired {sorted(fired)}, "
                  "expected nothing (all findings suppressed)")
            failures += 1
        else:
            print(f"self-test ok: suppressions hold in {suppress_fixture.name}")
    else:
        print(f"self-test FAIL: missing fixture {suppress_fixture}")
        failures += 1
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule fires on its fixture, then scan the tree")
    parser.add_argument("files", nargs="*", type=Path,
                        help="specific files to scan (default: the tree)")
    args = parser.parse_args()

    failures = 0
    if args.self_test:
        failures += run_self_test(args.root)

    targets = args.files if args.files else tree_files(args.root)
    findings: list[Finding] = []
    for path in targets:
        findings += scan_file(path, args.root)
    for finding in findings:
        print(finding)

    if findings:
        print(f"vtm_lint: {len(findings)} finding(s)")
    elif not args.files:
        print(f"vtm_lint: tree clean ({len(targets)} files)")
    return 1 if (findings or failures) else 0


if __name__ == "__main__":
    sys.exit(main())
