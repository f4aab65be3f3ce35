#!/usr/bin/env python3
"""Docs link check: every relative markdown link must resolve.

``python tools/check_doc_links.py [FILE_OR_DIR ...]``

Defaults to ``README.md``, ``docs/`` and ``src/``.  External links
(``http(s)``, ``mailto``) and pure fragments are ignored; relative
targets are resolved against the linking file's directory and must
exist (fragments are stripped first).  Exit 1 with one line per broken
link.

Bare-path mentions like ``docs/ARCHITECTURE.md`` in prose are also
checked when they look like in-repo markdown paths — the docs lean on
that style heavily, and a renamed file should fail CI even where no
``[]()`` link was used.

In Python sources (``*.py``) every ``*.md`` name a docstring or comment
mentions is checked, bare root-level names like ``README.md`` included;
each must resolve against the repository root.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: [text](target) markdown links, ignoring images' leading "!".
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Prose mentions of in-repo markdown files (docs/FOO.md, README.md).
_BARE_DOC = re.compile(r"(?<![\w/(\[])((?:docs|tools)/[\w./-]+\.(?:md|py))")

#: Any markdown file name in Python source, with or without a directory
#: (never part of a URL).
_PY_DOC = re.compile(r"(?<![\w/.:-])([\w./-]*\w\.md)(?!\w)")


def check_file(path: Path) -> list[str]:
    errors = []
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".py":
        targets = [("mention", m.group(1)) for m in _PY_DOC.finditer(text)]
    else:
        targets = [("link", m.group(1)) for m in _MD_LINK.finditer(text)]
        targets += [("mention", m.group(1)) for m in _BARE_DOC.finditer(text)]
    for kind, raw in targets:
        target = raw.split("#", 1)[0]
        if not target or "://" in raw or raw.startswith(("mailto:", "#")):
            continue
        base = ROOT if kind == "mention" else path.parent
        if not (base / target).exists():
            try:
                shown = path.relative_to(ROOT)
            except ValueError:  # explicitly-passed file outside the repo
                shown = path
            errors.append(f"{shown}: broken {kind} -> {raw}")
    return errors


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [
        ROOT / "README.md", ROOT / "docs", ROOT / "src"
    ]
    files: list[Path] = []
    for r in roots:
        if r.is_dir():
            files.extend(sorted(r.rglob("*.md")) + sorted(r.rglob("*.py")))
        else:
            files.append(r)
    errors = [e for f in files for e in check_file(f)]
    for e in errors:
        print(e, file=sys.stderr)
    print(f"check_doc_links: {len(files)} files, {len(errors)} broken links")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
