"""Documentation checks: internal links resolve, code snippets are valid.

Markdown rots silently — a renamed file or a deleted heading breaks
links without failing anything, and code blocks drift from the APIs
they demonstrate.  These tests keep README.md and docs/*.md honest:

* every relative link target must exist (and a ``#fragment`` pointing
  into a markdown file must match one of its headings, GitHub-slugged);
* every ```` ```python ```` block must at least compile;
* every ``python -m repro <command>`` line in a ```` ```bash ```` block
  must name a real CLI subcommand.

CI runs this file as its docs job; it is also part of the tier-1 suite
(it costs milliseconds).
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda p: str(p),
)

#: [text](target) — target captured up to the closing parenthesis.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Fenced code blocks with an info string: ```lang\n ... ```
_FENCE_RE = re.compile(r"```(\w+)\n(.*?)```", re.DOTALL)
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces to dashes."""
    heading = re.sub(r"[`*_]", "", heading.strip().lower())
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def _links(markdown: str):
    # Strip fenced code blocks first: link syntax inside code is not a link.
    return _LINK_RE.findall(re.sub(r"```.*?```", "", markdown, flags=re.DOTALL))


def _doc_params():
    return [pytest.param(path, id=str(path.relative_to(REPO_ROOT))) for path in DOC_FILES]


@pytest.mark.parametrize("doc", _doc_params())
def test_docs_exist_and_are_nonempty(doc):
    assert doc.exists(), f"{doc} is referenced by the docs suite but missing"
    assert doc.read_text().strip(), f"{doc} is empty"


@pytest.mark.parametrize("doc", _doc_params())
def test_internal_links_resolve(doc):
    markdown = doc.read_text()
    broken = []
    for target in _links(markdown):
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # external: not checked (no network in CI)
        path_part, _, fragment = target.partition("#")
        resolved = doc if not path_part else (doc.parent / path_part).resolve()
        if not resolved.exists():
            broken.append(f"{target}: no such file {resolved}")
            continue
        if fragment and resolved.suffix == ".md":
            slugs = [_github_slug(h) for h in _HEADING_RE.findall(resolved.read_text())]
            if fragment not in slugs:
                broken.append(f"{target}: no heading for anchor #{fragment} in {resolved.name}")
    assert not broken, f"broken links in {doc.name}:\n" + "\n".join(broken)


@pytest.mark.parametrize("doc", _doc_params())
def test_python_snippets_compile(doc):
    for language, source in _FENCE_RE.findall(doc.read_text()):
        if language != "python":
            continue
        try:
            compile(source, f"<{doc.name} python block>", "exec")
        except SyntaxError as exc:  # pragma: no cover - the assertion message
            pytest.fail(f"python block in {doc.name} does not compile: {exc}\n{source}")


def _cli_subcommands() -> set[str]:
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._actions:  # noqa: SLF001 - our own parser, test-only
        if hasattr(action, "choices") and action.choices:
            return set(action.choices)
    raise AssertionError("could not introspect CLI subcommands")


@pytest.mark.parametrize("doc", _doc_params())
def test_bash_snippets_name_real_cli_commands(doc):
    commands = _cli_subcommands()
    bad = []
    for language, source in _FENCE_RE.findall(doc.read_text()):
        if language != "bash":
            continue
        for line in source.splitlines():
            match = re.search(r"python -m repro\s+(\S+)", line)
            if not match:
                continue
            token = match.group(1)
            if token.startswith("-"):
                continue  # a flag like --help, not a subcommand
            if token not in commands:
                bad.append(f"{token!r} in: {line.strip()}")
    assert not bad, f"unknown repro subcommands referenced in {doc.name}: {bad}"


def test_readme_links_the_docs_tree():
    readme = (REPO_ROOT / "README.md").read_text()
    for page in ("docs/architecture.md", "docs/history-store.md", "docs/benchmarks.md"):
        assert page in readme, f"README must link {page}"


def test_benchmark_index_covers_every_benchmark():
    """docs/benchmarks.md must mention every bench_*.py file (and no ghosts)."""
    index = (REPO_ROOT / "docs" / "benchmarks.md").read_text()
    on_disk = {p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
    listed = set(re.findall(r"(bench_\w+\.py)", index))
    missing = sorted(on_disk - listed)
    ghosts = sorted(listed - on_disk)
    assert not missing, f"benchmarks missing from docs/benchmarks.md: {missing}"
    assert not ghosts, f"docs/benchmarks.md lists nonexistent benchmarks: {ghosts}"


def test_documented_tuner_keys_match_the_registry():
    """The app.json table in docs/history-store.md lists exactly the
    tenant keys registration accepts."""
    from repro.service.registry import TUNER_KEYS

    schema = (REPO_ROOT / "docs" / "history-store.md").read_text()
    row = next(line for line in schema.splitlines() if line.startswith("| `tuner` |"))
    documented = set(re.findall(r"`(\w+)`", row.split("registry:", 1)[1]))
    assert documented == TUNER_KEYS
