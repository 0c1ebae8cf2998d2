"""Docs-integrity gate: the documentation may not drift from the repo.

Four invariants over ``docs/*.md`` plus the README, all cheap enough
for the fast tier:

- every **relative link** resolves to a real file (anchors stripped;
  external ``http(s)``/``mailto`` links are out of scope — no network),
- every **benchmark artifact** mentioned by path under
  ``benchmarks/results/`` exists on disk,
- every **CLI flag** the docs document (``--something`` outside code
  that belongs to other tools) is accepted by ``repro`` — it appears in
  the top-level or some subcommand's ``--help`` text,
- every backticked dotted **``repro.…`` name** resolves by import and
  ``getattr``, so the docs never name removed API.

Executable python fences are covered separately by
``test_docs_snippets.py``; this gate is about references, not code.
"""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(REPO.glob("docs/*.md")) + [REPO / "README.md"]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_RESULT = re.compile(r"benchmarks/results/[\w][\w.-]*")
_FLAG = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]+)")
_FENCE = re.compile(r"```.*?```", re.S)
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_REPRO_NAME = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")

# Lines invoking other tools (pip, pytest, the benchmark scripts run as
# plain python programs) carry those tools' flags, not ours.
_FOREIGN_COMMAND = re.compile(r"\b(?:pip|pytest|python)\b(?!.*\brepro\b)")


def _repro_flags(text):
    """Flags documented as belonging to the ``repro`` CLI."""
    flags = set()
    for line in text.splitlines():
        if _FOREIGN_COMMAND.search(line):
            continue
        flags.update(_FLAG.findall(line))
    return flags


def _doc_ids():
    return [str(p.relative_to(REPO)) for p in DOC_FILES]


def test_docs_exist_at_all():
    assert len(DOC_FILES) >= 8  # docs/ plus README


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_relative_links_resolve(doc):
    text = doc.read_text()
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (doc.parent / path).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken relative links {broken}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_referenced_benchmark_artifacts_exist(doc):
    text = doc.read_text()
    missing = sorted(
        {
            ref
            for ref in _RESULT.findall(text)
            if not (REPO / ref).exists()
        }
    )
    assert not missing, f"{doc.name}: missing benchmark artifacts {missing}"


@pytest.fixture(scope="module")
def cli_help_text():
    """Top-level help plus every subcommand's help, concatenated."""

    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            with contextlib.suppress(SystemExit):
                main(argv, out=buf)
        return buf.getvalue()

    top = capture(["--help"])
    match = re.search(r"\{([a-z,-]+)\}", top)
    assert match, "could not parse subcommand list from `repro --help`"
    texts = [top]
    for sub in match.group(1).split(","):
        texts.append(capture([sub, "--help"]))
    return "\n".join(texts)


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_documented_cli_flags_exist(doc, cli_help_text):
    unknown = sorted(
        flag
        for flag in _repro_flags(doc.read_text())
        if flag not in cli_help_text
    )
    assert not unknown, (
        f"{doc.name}: documents flags the repro CLI does not accept "
        f"{unknown}"
    )


def _resolve(dotted):
    """Import ``dotted`` as far as it names modules, then ``getattr``."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[: i + 1]))
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_documented_repro_names_resolve(doc):
    text = _FENCE.sub("", doc.read_text())
    names = {
        name
        for span in _CODE_SPAN.findall(text)
        for name in _REPRO_NAME.findall(span)
    }
    unresolved = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert not unresolved, (
        f"{doc.name}: names that do not resolve {unresolved}"
    )
