#!/usr/bin/env python3
"""Docs checks run by the CI docs job (and runnable locally):

1. every intra-repo markdown link in *.md resolves to an existing file
   or directory (anchors and external URLs are skipped),
2. every src/*/ subsystem is mentioned in ARCHITECTURE.md, so the
   top-down tour cannot silently go stale when a subsystem is added, and
3. every numbered design section cited from src/, tests/, tools/ or
   bench/ (a "§" followed by N or N.M; the paper's own sections are
   Roman, e.g. "§V-A") names an existing DESIGN.md heading, so a
   renumbered or deleted section cannot leave citations dangling.

Usage: python3 tools/check_docs.py [repo_root]
Exits nonzero with one line per violation.
"""

import os
import re
import sys

# [text](target) — excluding images is unnecessary; they must exist too.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_DIRS = {".git", "build", "build-tsan", ".claude"}
# Verbatim external material (paper extraction, exemplar snippets from
# other repos): their links refer to their origin, not to this tree.
SKIP_FILES = {"PAPERS.md", "SNIPPETS.md"}
# A numbered design-section citation. "-digit" after it is an outside
# work's numbering (e.g. a book's "§5-1"), not a DESIGN.md section.
SECTION_REF_RE = re.compile(r"§(\d+(?:\.\d+)?)(?!\d|\.\d|-\d)")
# "## 5. The engine layer" / "### 5.10 Disk-resident ..." -> "5" / "5.10".
HEADING_RE = re.compile(r"^#{2,6}\s+(\d+(?:\.\d+)?)\.?\s", re.MULTILINE)
CODE_DIRS = ("src", "tests", "tools", "bench")


def md_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if name.endswith(".md") and name not in SKIP_FILES:
                yield os.path.join(dirpath, name)


def check_links(root):
    errors = []
    for path in sorted(md_files(root)):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                rel = os.path.relpath(path, root)
                errors.append(f"{rel}: broken link -> {match.group(1)}")
    return errors


def check_architecture_mentions(root):
    arch_path = os.path.join(root, "ARCHITECTURE.md")
    if not os.path.isfile(arch_path):
        return ["ARCHITECTURE.md is missing"]
    with open(arch_path, encoding="utf-8") as f:
        arch = f.read()
    errors = []
    src = os.path.join(root, "src")
    for name in sorted(os.listdir(src)):
        if not os.path.isdir(os.path.join(src, name)):
            continue
        if f"src/{name}/" not in arch:
            errors.append(
                f"ARCHITECTURE.md: subsystem src/{name}/ is never mentioned")
    return errors


def check_design_citations(root):
    design_path = os.path.join(root, "DESIGN.md")
    if not os.path.isfile(design_path):
        return ["DESIGN.md is missing"]
    with open(design_path, encoding="utf-8") as f:
        sections = set(HEADING_RE.findall(f.read()))
    errors = []
    for top in CODE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                try:
                    with open(path, encoding="utf-8") as f:
                        lines = f.readlines()
                except (UnicodeDecodeError, OSError):
                    continue  # binary fixtures cite nothing
                for lineno, line in enumerate(lines, 1):
                    for match in SECTION_REF_RE.finditer(line):
                        if match.group(1) not in sections:
                            rel = os.path.relpath(path, root)
                            errors.append(
                                f"{rel}:{lineno}: cites §{match.group(1)}, "
                                "which is not a DESIGN.md heading")
    return errors


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    errors = (check_links(root) + check_architecture_mentions(root) +
              check_design_citations(root))
    for error in errors:
        print(error)
    if errors:
        print(f"{len(errors)} docs check(s) failed", file=sys.stderr)
        return 1
    print("docs checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
