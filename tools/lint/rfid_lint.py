#!/usr/bin/env python3
"""Repo-invariant linter for the RFID reproduction.

Enforces domain rules no generic analyzer knows (registered as the
`rfid_lint` ctest; see docs/ARCHITECTURE.md "Static analysis"):

  kind-coverage      Every MessageKind enumerator in src/dist/frame.h must
                     (a) have a `case MessageKind::kX:` in frame.cc's
                     ToString switch -- that string names the wire kind in
                     telemetry metrics ("net/bytes/kind=<name>") and
                     reports -- and (b) be used somewhere in src/dist/
                     outside frame.{h,cc}: an enumerator nobody sends or
                     handles is dead wire protocol. `kNumMessageKinds`
                     must equal the enumerator count (Network's per-kind
                     byte accounting arrays are sized by it).

  phase-coverage     Every Phase enumerator in src/obs/telemetry.h must
                     have a `case Phase::kX:` in telemetry.cc's PhaseName
                     switch (the trace-track / metric name), and
                     `kNumPhases` must equal the enumerator count.

  determinism-rand   No rand(), srand(), std::random_device, or
                     drand48-family calls in deterministic replay paths
                     (src/dist/): fault fates and everything else that
                     feeds results must stay pure functions of
                     seed/seq/attempt (common/rng.h SplitMix64).

  determinism-clock  No wall-clock reads (time(), std::time,
                     chrono::system_clock, gettimeofday, clock_gettime
                     with a realtime clock, localtime, gmtime) in
                     src/dist/. steady_clock is fine -- telemetry times
                     with it, and it never feeds back into results.

  unordered-iter     No iteration over std::unordered_{map,set} objects
                     in src/dist/: iteration order is
                     implementation-defined, and an accumulation or send
                     loop over it silently breaks the bit-identical
                     replay contract. Keyed lookups are fine. Iterations
                     that are provably order-independent (e.g. keyed
                     writes into another map, fd close loops) carry an
                     explicit `// lint:allow(unordered-iter): <reason>`
                     on the same or the preceding line -- the vetted
                     suppression list IS the code.

  nan-convention     Accuracy accessors (functions named *ErrorPercent)
                     must return NaN when nothing was measured, never a
                     fake-perfect 0: the body must mention NaN (or
                     delegate to a *ErrorPercent overload that does). An
                     empty run is not a perfect one.

  durability-fsync   In src/dist/ files that open files for writing (the
                     durable-storage modules: WAL segments and
                     checkpoints), every raw write primitive -- an
                     open() with O_WRONLY/O_RDWR, fopen() in a write
                     mode, write()/pwrite()/fwrite(), rename() -- must
                     sit inside a region bracketed by
                     `// lint:durable-io-begin(<name>)` ...
                     `// lint:durable-io-end`: the audited writers that
                     pair every byte with the configured fsync policy
                     (dist/durability.cc). A stray write that bypasses
                     them can reorder past the WAL's append-before-apply
                     contract and silently void crash recovery. Files
                     that never open a file for writing (e.g. the socket
                     transport's fd writes) are out of scope. Unbalanced
                     or nested markers are findings;
                     `lint:allow(durability-fsync): <reason>` escapes.

  hot-loop-alloc     Inside regions bracketed by
                     `// lint:hot-loop-begin(<name>)` ...
                     `// lint:hot-loop-end` (the per-reading window
                     loops: index scatter, batch split, co-location
                     counting), no per-element heap allocation: no
                     `new` / `make_unique` / `make_shared`, and no
                     `push_back`/`emplace_back` into a container that
                     was not `reserve`d earlier in the file. These loops
                     run once per reading per window, so they must not
                     allocate per element.
                     Amortized-constant pushes (cleared-and-reused
                     vectors at steady-state capacity) carry
                     `// lint:allow(hot-loop-alloc): <reason>`.
                     Unbalanced or nested markers are findings.

Usage:
  rfid_lint.py --root <repo>         lint the tree (exit 1 on findings)
  rfid_lint.py --root <repo> --list  print the rule ids and exit

Suppressions: `lint:allow(<rule-id>): reason` in a comment on the same
line or the line directly above the finding. Suppressions without a
reason are themselves findings.
"""

import argparse
import os
import re
import sys

RULES = (
    "kind-coverage",
    "phase-coverage",
    "determinism-rand",
    "determinism-clock",
    "unordered-iter",
    "nan-convention",
    "durability-fsync",
    "hot-loop-alloc",
)

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)\)(:?\s*(\S.*)?)$")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based; 0 = whole-file
        self.rule = rule
        self.message = message

    def render(self, root):
        rel = os.path.relpath(self.path, root)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def read_lines(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


def strip_comment(line):
    """Drops // comments and the contents of string literals (keeps
    structure) so token scans don't fire inside either."""
    out = []
    i = 0
    in_str = None
    while i < len(line):
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < len(line) and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def allowed(lines, idx, rule):
    """True when line idx (0-based) or the contiguous comment block above
    it carries a lint:allow(<rule>) suppression. Returns
    (allowed, finding_or_None): a reasonless suppression is itself a
    finding."""
    candidates = [idx]
    j = idx - 1
    while j >= 0 and lines[j].lstrip().startswith("//"):
        candidates.append(j)
        j -= 1
    for j in candidates:
        m = ALLOW_RE.search(lines[j])
        if m and m.group(1) == rule:
            if not m.group(3):
                return True, (j + 1, "suppression without a reason")
            return True, None
    return False, None


def parse_enum(text, enum_name):
    """Returns the enumerator names of `enum class <enum_name>` in order."""
    m = re.search(
        r"enum\s+class\s+" + enum_name + r"\s*(?::[^{]+)?\{(.*?)\}\s*;",
        text,
        re.S,
    )
    if not m:
        return None
    body = re.sub(r"//[^\n]*", "", m.group(1))
    names = []
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        names.append(part.split("=")[0].strip())
    return names


def parse_count(text, const_name):
    m = re.search(const_name + r"\s*=\s*(\d+)", text)
    return int(m.group(1)) if m else None


def check_enum_coverage(root, findings):
    # ---- MessageKind ----
    frame_h = os.path.join(root, "src/dist/frame.h")
    frame_cc = os.path.join(root, "src/dist/frame.cc")
    if os.path.exists(frame_h):
        header = "\n".join(read_lines(frame_h))
        kinds = parse_enum(header, "MessageKind")
        if kinds is None:
            findings.append(
                Finding(frame_h, 0, "kind-coverage",
                        "cannot parse enum class MessageKind"))
            kinds = []
        count = parse_count(header, r"kNumMessageKinds")
        if count is not None and kinds and count != len(kinds):
            findings.append(
                Finding(frame_h, 0, "kind-coverage",
                        f"kNumMessageKinds is {count} but MessageKind has "
                        f"{len(kinds)} enumerators -- per-kind accounting "
                        "arrays are mis-sized"))
        impl = "\n".join(read_lines(frame_cc)) if os.path.exists(
            frame_cc) else ""
        dist_dir = os.path.join(root, "src/dist")
        other = []
        for name in sorted(os.listdir(dist_dir)):
            if name in ("frame.h", "frame.cc"):
                continue
            p = os.path.join(dist_dir, name)
            if os.path.isfile(p) and name.endswith((".h", ".cc")):
                other.append("\n".join(read_lines(p)))
        other_text = "\n".join(other)
        for kind in kinds:
            if not re.search(r"case\s+MessageKind::" + kind + r"\s*:", impl):
                findings.append(
                    Finding(frame_cc if impl else frame_h, 0,
                            "kind-coverage",
                            f"MessageKind::{kind} has no case in frame.cc "
                            "ToString -- its wire bytes would be reported "
                            "under no name"))
            if not re.search(r"MessageKind::" + kind + r"\b", other_text):
                findings.append(
                    Finding(frame_h, 0, "kind-coverage",
                            f"MessageKind::{kind} is never used outside "
                            "frame.{h,cc} -- nobody sends or handles it"))

    # ---- Phase ----
    tel_h = os.path.join(root, "src/obs/telemetry.h")
    tel_cc = os.path.join(root, "src/obs/telemetry.cc")
    if os.path.exists(tel_h):
        header = "\n".join(read_lines(tel_h))
        phases = parse_enum(header, "Phase")
        if phases is None:
            findings.append(
                Finding(tel_h, 0, "phase-coverage",
                        "cannot parse enum class Phase"))
            phases = []
        count = parse_count(header, r"kNumPhases")
        if count is not None and phases and count != len(phases):
            findings.append(
                Finding(tel_h, 0, "phase-coverage",
                        f"kNumPhases is {count} but Phase has "
                        f"{len(phases)} enumerators"))
        impl = "\n".join(read_lines(tel_cc)) if os.path.exists(tel_cc) else ""
        for phase in phases:
            if not re.search(r"case\s+Phase::" + phase + r"\s*:", impl):
                findings.append(
                    Finding(tel_cc if impl else tel_h, 0, "phase-coverage",
                            f"Phase::{phase} has no case in telemetry.cc "
                            "PhaseName -- its trace slices would be "
                            "unnamed"))


BANNED_RAND = re.compile(
    r"(?<![\w:])(?:std::)?(?:(?:rand|srand|rand_r|drand48|lrand48|"
    r"mrand48)\s*\(|random_device\b)")
BANNED_CLOCK = re.compile(
    r"(?<![\w:])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0|&)"
    r"|\bsystem_clock\b"
    r"|(?<![\w:])(?:gettimeofday|localtime|gmtime)\s*\("
    r"|\bclock_gettime\s*\(\s*CLOCK_REALTIME")
UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set)\s*<.*>\s*&?\s*(\w+)\s*"
    r"(?:GUARDED_BY\s*\([^)]*\)\s*)?(?:=|;|\{)")
RANGE_FOR = re.compile(r"for\s*\(.*:\s*(?:this->)?(\w+)\s*\)")
ITER_FOR = re.compile(
    r"for\s*\(\s*auto\s+\w+\s*=\s*(?:this->)?(\w+)\.(?:c?begin)\s*\(\)")


def collect_unordered_names(paths):
    names = set()
    for p in paths:
        for line in read_lines(p):
            m = UNORDERED_DECL.search(strip_comment(line))
            if m:
                names.add(m.group(1))
    return names


def check_determinism(root, findings):
    dist_dir = os.path.join(root, "src/dist")
    if not os.path.isdir(dist_dir):
        return
    paths = [
        os.path.join(dist_dir, n) for n in sorted(os.listdir(dist_dir))
        if n.endswith((".h", ".cc"))
    ]
    unordered = collect_unordered_names(paths)
    for path in paths:
        lines = read_lines(path)
        for idx, raw in enumerate(lines):
            line = strip_comment(raw)
            if BANNED_RAND.search(line):
                ok, extra = allowed(lines, idx, "determinism-rand")
                if extra:
                    findings.append(
                        Finding(path, extra[0], "determinism-rand", extra[1]))
                if not ok:
                    findings.append(
                        Finding(path, idx + 1, "determinism-rand",
                                "nondeterministic RNG in a replay path; "
                                "use the seeded SplitMix64 (common/rng.h)"))
            if BANNED_CLOCK.search(line):
                ok, extra = allowed(lines, idx, "determinism-clock")
                if extra:
                    findings.append(
                        Finding(path, extra[0], "determinism-clock",
                                extra[1]))
                if not ok:
                    findings.append(
                        Finding(path, idx + 1, "determinism-clock",
                                "wall-clock read in a replay path; use the "
                                "replay epoch (or steady_clock for "
                                "telemetry only)"))
            for pat in (RANGE_FOR, ITER_FOR):
                m = pat.search(line)
                if m and m.group(1) in unordered:
                    ok, extra = allowed(lines, idx, "unordered-iter")
                    if extra:
                        findings.append(
                            Finding(path, extra[0], "unordered-iter",
                                    extra[1]))
                    if not ok:
                        findings.append(
                            Finding(path, idx + 1, "unordered-iter",
                                    f"iteration over unordered container "
                                    f"'{m.group(1)}' in a replay path: "
                                    "order is implementation-defined; use "
                                    "an ordered map or suppress with a "
                                    "reason if provably order-independent"))


FUNC_DEF = re.compile(
    r"^[\w:&<>,\s*]*?\b(?:double|float)\s+[\w:]*?(\w*ErrorPercent)\s*\("
)
ANY_DOUBLE_DEF = re.compile(
    r"^[\w:&<>,\s*]*?\b(?:double|float)\s+[\w:]*?(\w+)\s*\("
)
CALLEE = re.compile(r"\b(\w+)\s*\(")


def function_body(lines, start_idx):
    """Returns the text of the brace-balanced body starting at the first
    '{' at or after start_idx (and the 1-based line of that '{')."""
    depth = 0
    body = []
    opened = False
    for i in range(start_idx, len(lines)):
        line = strip_comment(lines[i])
        for c in line:
            if c == "{":
                depth += 1
                opened = True
            elif c == "}":
                depth -= 1
        body.append(line)
        if opened and depth <= 0:
            return "\n".join(body)
        if not opened and ";" in line:
            return None  # declaration, not a definition
    return "\n".join(body)


def nan_returning_functions(src):
    """Names of double/float-returning functions in src/ whose bodies
    mention NaN, closed transitively over delegation: a function that
    only calls a NaN-returning helper inherits its behavior (e.g. the
    accessors over ErrorRate::Percent)."""
    defs = []  # (name, body)
    for dirpath, _, filenames in os.walk(src):
        for name in sorted(filenames):
            if not name.endswith((".h", ".cc")):
                continue
            lines = read_lines(os.path.join(dirpath, name))
            for idx, raw in enumerate(lines):
                m = ANY_DOUBLE_DEF.search(strip_comment(raw))
                if not m:
                    continue
                body = function_body(lines, idx)
                if body:
                    defs.append((m.group(1), body))
    nan_set = {n for n, b in defs if re.search(r"(?i)nan", b)}
    changed = True
    while changed:
        changed = False
        for n, b in defs:
            if n in nan_set:
                continue
            if any(c in nan_set for c in CALLEE.findall(b) if c != n):
                nan_set.add(n)
                changed = True
    return nan_set


def check_nan_convention(root, findings):
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        return
    nan_set = nan_returning_functions(src)
    for dirpath, _, filenames in os.walk(src):
        for name in sorted(filenames):
            if not name.endswith(".cc"):
                continue
            path = os.path.join(dirpath, name)
            lines = read_lines(path)
            for idx, raw in enumerate(lines):
                m = FUNC_DEF.search(strip_comment(raw))
                if not m:
                    continue
                body = function_body(lines, idx)
                if body is None:
                    continue
                if re.search(r"(?i)nan", body):
                    continue
                # Delegation to a NaN-returning helper (or another
                # *ErrorPercent accessor) inherits the convention.
                callees = set(CALLEE.findall(body)) - {m.group(1)}
                if callees & nan_set:
                    continue
                if any(c.endswith("ErrorPercent") for c in callees):
                    continue
                ok, extra = allowed(lines, idx, "nan-convention")
                if extra:
                    findings.append(
                        Finding(path, extra[0], "nan-convention", extra[1]))
                if ok:
                    continue
                findings.append(
                    Finding(path, idx + 1, "nan-convention",
                            f"{m.group(1)} never returns NaN: an accuracy "
                            "accessor with nothing measured must answer "
                            "NaN, not a fake-perfect value"))


DUR_BEGIN = re.compile(r"lint:durable-io-begin\(([\w-]+)\)")
DUR_END = re.compile(r"lint:durable-io-end\b")
OPEN_TOKEN = re.compile(r"(?<![\w:.>])(?:::)?open\s*\(")
WRITE_MODE = re.compile(r"O_(?:WRONLY|RDWR)")
FOPEN_WRITE = re.compile(r"(?<![\w:.>])fopen\s*\([^;{]*,\s*\"[wa]")
RAW_WRITE = re.compile(r"(?<![\w:.>])(?:::)?(?:write|pwrite|fwrite)\s*\(")
RAW_RENAME = re.compile(r"(?<![\w:.>])(?:::)?rename\s*\(")


def check_durable_io(root, findings):
    dist_dir = os.path.join(root, "src/dist")
    if not os.path.isdir(dist_dir):
        return
    for name in sorted(os.listdir(dist_dir)):
        if not name.endswith((".h", ".cc")):
            continue
        path = os.path.join(dist_dir, name)
        lines = read_lines(path)
        stripped = [strip_comment(l) for l in lines]
        # Scope gate: only modules that open files for writing are durable
        # storage; a socket transport's fd writes never open a file.
        text = "\n".join(stripped)
        gated = bool(WRITE_MODE.search(text) or FOPEN_WRITE.search(text))
        region = None  # (name, 1-based begin line)
        for idx, raw in enumerate(lines):
            mb = DUR_BEGIN.search(raw)
            if mb:
                if region is not None:
                    findings.append(Finding(
                        path, idx + 1, "durability-fsync",
                        f"durable-io-begin({mb.group(1)}) opens inside "
                        f"unclosed region '{region[0]}' (line "
                        f"{region[1]}); regions do not nest"))
                region = (mb.group(1), idx + 1)
                continue
            if DUR_END.search(raw):
                if region is None:
                    findings.append(Finding(
                        path, idx + 1, "durability-fsync",
                        "durable-io-end without a matching "
                        "durable-io-begin"))
                region = None
                continue
            if not gated or region is not None:
                continue
            line = stripped[idx]
            hits = []
            if OPEN_TOKEN.search(line):
                # open() calls wrap; the mode flags may sit on the next
                # line.
                joined = line
                if idx + 1 < len(stripped):
                    joined += " " + stripped[idx + 1]
                if WRITE_MODE.search(joined):
                    hits.append("open() for writing")
            if FOPEN_WRITE.search(line):
                hits.append("fopen() in a write mode")
            if RAW_WRITE.search(line):
                hits.append("raw write")
            if RAW_RENAME.search(line):
                hits.append("rename()")
            for what in hits:
                ok, extra = allowed(lines, idx, "durability-fsync")
                if extra:
                    findings.append(Finding(
                        path, extra[0], "durability-fsync", extra[1]))
                if not ok:
                    findings.append(Finding(
                        path, idx + 1, "durability-fsync",
                        f"{what} outside a lint:durable-io region in a "
                        "durable storage module: WAL/checkpoint bytes "
                        "must flow through the audited writers "
                        "that pair them with the fsync policy, or carry "
                        "a reasoned suppression"))
        if region is not None:
            findings.append(Finding(
                path, region[1], "durability-fsync",
                f"durable-io-begin({region[0]}) is never closed; add "
                "// lint:durable-io-end"))


HOT_BEGIN = re.compile(r"lint:hot-loop-begin\(([\w-]+)\)")
HOT_END = re.compile(r"lint:hot-loop-end\b")
HOT_NEW = re.compile(r"(?<![\w:.>])new\s+[\w:(<]")
HOT_MAKE = re.compile(r"\bmake_(?:unique|shared)\s*<")
HOT_PUSH = re.compile(
    r"\b(\w+)(?:\[[^\]]*\])?\s*(?:\.|->)\s*(?:push_back|emplace_back)\s*\(")


def has_earlier_reserve(lines, idx, container):
    """True when `container.reserve(` (or ->reserve) appears on a line
    before idx -- the capacity was provisioned outside the hot loop."""
    pat = re.compile(
        r"\b" + re.escape(container) +
        r"(?:\[[^\]]*\])?\s*(?:\.|->)\s*reserve\s*\(")
    return any(pat.search(strip_comment(l)) for l in lines[:idx])


def check_hot_loops(root, findings):
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        return
    for dirpath, _, filenames in os.walk(src):
        for name in sorted(filenames):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            lines = read_lines(path)
            region = None  # (name, 1-based begin line)
            for idx, raw in enumerate(lines):
                mb = HOT_BEGIN.search(raw)
                if mb:
                    if region is not None:
                        findings.append(Finding(
                            path, idx + 1, "hot-loop-alloc",
                            f"hot-loop-begin({mb.group(1)}) opens inside "
                            f"unclosed region '{region[0]}' (line "
                            f"{region[1]}); regions do not nest"))
                    region = (mb.group(1), idx + 1)
                    continue
                if HOT_END.search(raw):
                    if region is None:
                        findings.append(Finding(
                            path, idx + 1, "hot-loop-alloc",
                            "hot-loop-end without a matching "
                            "hot-loop-begin"))
                    region = None
                    continue
                if region is None:
                    continue
                line = strip_comment(raw)
                hits = []
                if HOT_NEW.search(line) or HOT_MAKE.search(line):
                    hits.append("per-element heap allocation")
                m = HOT_PUSH.search(line)
                if m and not has_earlier_reserve(lines, idx, m.group(1)):
                    hits.append(f"push into '{m.group(1)}' with no "
                                "preceding reserve")
                for what in hits:
                    ok, extra = allowed(lines, idx, "hot-loop-alloc")
                    if extra:
                        findings.append(Finding(
                            path, extra[0], "hot-loop-alloc", extra[1]))
                    if not ok:
                        findings.append(Finding(
                            path, idx + 1, "hot-loop-alloc",
                            f"{what} inside hot loop '{region[0]}': "
                            "this runs once per reading per window -- "
                            "provision up front (reserve / reused buffer) or "
                            "suppress with a reason if amortized"))
            if region is not None:
                findings.append(Finding(
                    path, region[1], "hot-loop-alloc",
                    f"hot-loop-begin({region[0]}) is never closed; add "
                    "// lint:hot-loop-end"))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, help="repository root")
    ap.add_argument("--list", action="store_true", help="print rule ids")
    args = ap.parse_args(argv)
    if args.list:
        for rule in RULES:
            print(rule)
        return 0
    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"rfid_lint: no such directory: {root}", file=sys.stderr)
        return 2

    findings = []
    check_enum_coverage(root, findings)
    check_determinism(root, findings)
    check_nan_convention(root, findings)
    check_durable_io(root, findings)
    check_hot_loops(root, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f.render(root))
    if findings:
        print(f"rfid_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("rfid_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
