"""Documentation health: the docs suite exists and its local links resolve.

CI has a dedicated docs job (doctests + link check); this tier-1 test
keeps the same guarantees when running plain ``pytest`` locally, using
the same checker the CI job invokes (``tools/check_doc_links.py``).
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "DESIGN.md",
    REPO_ROOT / "docs" / "architecture.md",
    REPO_ROOT / "docs" / "performance.md",
    REPO_ROOT / "docs" / "paper_map.md",
    REPO_ROOT / "docs" / "determinism.md",
]
#: Everything link-checked: the doc suite plus the authored top-level
#: markdown (the retrieved-corpus files PAPERS.md/SNIPPETS.md embed
#: PDF-extraction artifacts and are deliberately excluded, matching the
#: CI docs job's invocation).
LINK_CHECKED_FILES = DOC_FILES + [
    REPO_ROOT / "ISSUE.md",
    REPO_ROOT / "ROADMAP.md",
    REPO_ROOT / "CHANGES.md",
    REPO_ROOT / "PAPER.md",
]


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_doc_links", REPO_ROOT / "tools" / "check_doc_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_doc_file_exists_and_is_nonempty(path):
    assert path.is_file(), f"missing documentation file {path}"
    assert path.stat().st_size > 200, f"{path} looks like a stub"


def test_local_links_resolve():
    checker = _checker()
    broken = checker.find_broken_links([p for p in LINK_CHECKED_FILES if p.is_file()])
    assert broken == [], "broken documentation links: " + ", ".join(
        f"{path.name} -> {target}" for path, target in broken
    )


def test_checker_detects_breakage(tmp_path):
    checker = _checker()
    bad = tmp_path / "bad.md"
    bad.write_text("see [missing](does_not_exist.md) and [web](https://x.invalid)")
    broken = checker.find_broken_links([bad])
    assert [(path.name, target) for path, target in broken] == [
        ("bad.md", "does_not_exist.md")
    ]


def test_checker_validates_heading_anchors(tmp_path):
    """Dangling anchors fail — in-page and cross-file alike."""
    checker = _checker()
    other = tmp_path / "other.md"
    other.write_text("# Real Section\n\n## With `code` and punctuation!\n")
    doc = tmp_path / "doc.md"
    doc.write_text(
        "# Top\n\n"
        "ok: [a](#top) [b](other.md#real-section)"
        " [c](other.md#with-code-and-punctuation)\n"
        "bad: [d](#nope) [e](other.md#missing-section)\n"
    )
    broken = checker.find_broken_links([doc])
    assert [(path.name, target) for path, target in broken] == [
        ("doc.md", "#nope"),
        ("doc.md", "other.md#missing-section"),
    ]


def test_checker_slugifies_duplicate_headings_like_github(tmp_path):
    checker = _checker()
    doc = tmp_path / "dup.md"
    doc.write_text(
        "# Setup\n\n# Setup\n\n[first](#setup) [second](#setup-1) [third](#setup-2)\n"
    )
    broken = checker.find_broken_links([doc])
    assert [(path.name, target) for path, target in broken] == [("dup.md", "#setup-2")]


def test_docs_mention_every_backend_and_gate():
    """The performance guide documents the registered backends and gates."""
    text = (REPO_ROOT / "docs" / "performance.md").read_text(encoding="utf-8")
    from repro.backends import BACKENDS

    for name in BACKENDS.names():
        assert f"`{name}`" in text, f"performance.md does not document backend {name!r}"
    for bench in (
        "test_bench_fitness_pipeline.py",
        "test_bench_backends.py",
        "test_bench_campaign.py",
    ):
        assert bench in text, f"performance.md does not mention {bench}"
