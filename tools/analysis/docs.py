"""Documentation checkers (``python -m tools.analysis --select W``).

Two classes of rot, reported as structured findings through the
unified entry point:

=======  ====================================================================
code     rot
=======  ====================================================================
W401     broken intra-repo markdown link — ``[text](path)`` must resolve
         to a file or directory (anchors stripped; ``http(s)``/
         ``mailto``/pure-anchor links ignored)
W402     fenced ``sh`` block quotes a command file that does not exist
         (``python examples/...``, ``python -m pytest benchmarks/...``)
=======  ====================================================================
"""

from __future__ import annotations

import re

from tools.analysis.core import Checker, Finding

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_OPEN_RE = re.compile(r"^```(sh|bash|console)\s*$")
FENCE_CLOSE_RE = re.compile(r"^```\s*$")
COMMAND_PATH_RE = re.compile(
    r"python(?:3)?(?:\s+-m\s+pytest)?\s+((?:examples|benchmarks|tests|"
    r"tools)/[\w./-]+\.py)")


class MarkdownLinkChecker(Checker):
    name = "markdown-links"
    codes = ("W401",)
    description = "relative markdown links must resolve inside the repo"

    def run(self, ctx):
        for md in ctx.markdown_files():
            relpath = md.relative_to(ctx.root).as_posix()
            for lineno, line in enumerate(
                    md.read_text(encoding="utf-8").splitlines(), start=1):
                for target in LINK_RE.findall(line):
                    if target.startswith(("http://", "https://",
                                          "mailto:", "#")):
                        continue
                    path = target.split("#", 1)[0]
                    if not path:
                        continue
                    if not (md.parent / path).resolve().exists():
                        yield Finding(relpath, lineno, "W401",
                                      "broken link -> {}".format(target))


class DocCommandPathChecker(Checker):
    name = "doc-command-paths"
    codes = ("W402",)
    description = "files quoted by runnable doc snippets must exist"

    def run(self, ctx):
        for md in ctx.markdown_files():
            relpath = md.relative_to(ctx.root).as_posix()
            in_fence = False
            for lineno, line in enumerate(
                    md.read_text(encoding="utf-8").splitlines(), start=1):
                if not in_fence and FENCE_OPEN_RE.match(line):
                    in_fence = True
                    continue
                if in_fence and FENCE_CLOSE_RE.match(line):
                    in_fence = False
                    continue
                if not in_fence:
                    continue
                for path in COMMAND_PATH_RE.findall(line):
                    if not (ctx.root / path).exists():
                        yield Finding(
                            relpath, lineno, "W402",
                            "code block references missing file "
                            "{}".format(path))


DOCS_CHECKERS = (MarkdownLinkChecker, DocCommandPathChecker)
