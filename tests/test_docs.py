"""Documentation anti-rot checks: referenced artifacts must exist."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

REQUIRED_DOCS = [
    "README.md", "DESIGN.md", "EXPERIMENTS.md",
    "docs/architecture.md", "docs/mechanisms.md", "docs/workloads.md",
    "docs/extending.md", "docs/observability.md", "docs/storage.md",
    "docs/checkpointing.md",
]


@pytest.mark.parametrize("name", REQUIRED_DOCS)
def test_required_docs_exist_and_are_substantial(name):
    path = ROOT / name
    assert path.exists(), name
    assert len(path.read_text()) > 800, f"{name} looks stubbed"


def _module_references(text):
    """repro.x.y dotted references found in a document."""
    return set(re.findall(r"`(repro(?:\.\w+)+)`", text))


@pytest.mark.parametrize("name", REQUIRED_DOCS)
def test_module_references_resolve(name):
    import importlib
    text = (ROOT / name).read_text()
    for ref in _module_references(text):
        # Strip trailing attribute references (repro.core.decision.choose_x).
        parts = ref.split(".")
        for depth in range(len(parts), 1, -1):
            candidate = ".".join(parts[:depth])
            try:
                importlib.import_module(candidate)
                break
            except ImportError:
                continue
        else:
            pytest.fail(f"{name}: dangling module reference {ref}")


def test_readme_examples_exist():
    text = (ROOT / "README.md").read_text()
    for match in re.findall(r"examples/(\w+\.py)", text):
        assert (ROOT / "examples" / match).exists(), match


def test_design_lists_every_figure_bench():
    text = (ROOT / "DESIGN.md").read_text()
    for bench in (ROOT / "benchmarks").glob("test_fig*.py"):
        assert bench.name in text, f"DESIGN.md missing {bench.name}"


def test_experiments_covers_all_exhibits():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for exhibit in ("Figure 1", "Figure 2", "Figure 3", "Table IV",
                    "Figure 10", "Figure 11", "Figure 12", "Figure 13",
                    "Figure 14", "Figure 15", "Figure 16", "Figure 17",
                    "Figure 18", "Figure 19"):
        assert exhibit in text, f"EXPERIMENTS.md missing {exhibit}"


def test_design_documents_the_substitutions():
    text = (ROOT / "DESIGN.md").read_text()
    for substituted in ("gem5", "NVMain", "nvsim", "SPEC"):
        assert substituted in text
