#!/usr/bin/env python3
"""Fail if the documentation references files or C++ symbols that don't exist.

Checked documents: README.md and the whole docs/ tree (architecture, api,
benchmarks, known-issues) — in particular, every `examples/...` file a guide
points at must exist, so example renames can't silently strand the docs.

Checked reference forms:
  - markdown links:            [text](path)        (external URLs skipped)
  - inline code paths:         `src/tdf/cluster`   (repo-root-relative)
  - inline code symbols:       `tdf::registry::of` (every name after a repo
                               namespace, or after a class src/ defines:
                               `testbench::run`) and bare calls
                               `elaborate()`; each name must be an
                               identifier of src/ with comments and string
                               literals stripped, so a deleted API cannot
                               stay documented (main() and MACRO() calls
                               are exempt)

Path conventions accepted:
  - a path without extension may name a .hpp/.cpp pair or a directory
  - brace groups expand:       src/kernel/{event,process}
  - a trailing /* or /. means "the directory"
"""

import itertools
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))

LINK_RE = re.compile(r"\]\(([^)#]+)(?:#[^)]*)?\)")
CODE_RE = re.compile(r"`([^`\s]+)`")
PATH_PREFIXES = ("src/", "docs/", "tests/", "bench/", "examples/", "scripts/", ".github/")

SPAN_RE = re.compile(r"`([^`\n]+)`")
NAMESPACES = {"sca", "core", "de", "tdf", "eln", "lsf", "solver", "num", "util", "wire",
              "server", "lib"}
QUALIFIED_RE = re.compile(r"(?<![\w:])([A-Za-z_]\w*)((?:::~?[A-Za-z_]\w*)+)")
BARE_CALL_RE = re.compile(r"^([A-Za-z_]\w*)\(.*\)$")
MACRO_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")
# Comments, then string and character literals, in one left-to-right pass
# (a quote after a digit is a digit separator: 1'000'000).
SOURCE_NOISE_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|(?<![0-9A-Fa-f])\'(?:\\.|[^\'\\\n])*\'',
    re.DOTALL,
)


def expand_braces(path: str):
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    head, tail = path[: m.start()], path[m.end():]
    out = []
    for part in m.group(1).split(","):
        out.extend(expand_braces(head + part.strip() + tail))
    return out


def exists(base: pathlib.Path, ref: str) -> bool:
    if "*" in ref:
        return any(
            next(anchor.glob(ref), None) is not None for anchor in (base, ROOT)
        )
    ref = ref.rstrip("/").rstrip(".").rstrip("/")
    if not ref:
        return True
    for anchor in (base, ROOT):
        p = anchor / ref
        if p.exists():
            return True
        if p.suffix == "" and (
            p.with_suffix(".hpp").exists() or p.with_suffix(".cpp").exists()
        ):
            return True
    return False


def candidate_refs(text: str):
    # Markdown links are only looked for outside code: a C++ lambda in a
    # fenced block or inline span (`[](testbench& tb, ...)`) parses exactly
    # like a link otherwise.
    prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    prose = re.sub(r"`[^`]*`", "", prose)
    for m in LINK_RE.finditer(prose):
        target = m.group(1).strip()
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if re.search(r"\s", target):
            continue  # prose in parentheses, not a path
        yield target
    for m in CODE_RE.finditer(text):
        token = m.group(1)
        if token.startswith(PATH_PREFIXES) or token in ("CMakeLists.txt",):
            # Strip trailing punctuation from prose and code-call suffixes.
            yield token.rstrip(".,;:")


def source_symbols():
    """(every identifier, the class and struct names) of src/."""
    names, classes = set(), set()
    for path in (ROOT / "src").rglob("*.[ch]pp"):
        code = SOURCE_NOISE_RE.sub(" ", path.read_text(encoding="utf-8"))
        names.update(re.findall(r"[A-Za-z_]\w*", code))
        classes.update(re.findall(r"\b(?:class|struct)\s+([A-Za-z_]\w*)", code))
    return names, classes


def symbol_refs(text: str, classes: set):
    """Names that inline code spans (outside fenced blocks) claim exist."""
    prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for m in SPAN_RE.finditer(prose):
        span = m.group(1).strip()
        for q in QUALIFIED_RE.finditer(span):
            if q.group(1) in NAMESPACES or q.group(1) in classes:
                for name in q.group(2).split("::")[1:]:
                    yield span, name.lstrip("~")
        call = BARE_CALL_RE.match(span)
        if call and call.group(1) != "main" and not MACRO_RE.match(call.group(1)):
            yield span, call.group(1)


def main() -> int:
    failures = []
    identifiers, classes = source_symbols()
    for doc in DOCS:
        if not doc.exists():
            failures.append(f"{doc.relative_to(ROOT)}: file missing")
            continue
        text = doc.read_text(encoding="utf-8")
        for raw in candidate_refs(text):
            for ref in expand_braces(raw):
                if not exists(doc.parent, ref):
                    failures.append(f"{doc.relative_to(ROOT)}: broken reference '{ref}'")
        for span, name in symbol_refs(text, classes):
            if name not in identifiers:
                failures.append(
                    f"{doc.relative_to(ROOT)}: '{span}' names '{name}', which src/ does not define"
                )
    if failures:
        print("docs reference check FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print(f"docs reference check OK ({', '.join(str(d.relative_to(ROOT)) for d in DOCS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
