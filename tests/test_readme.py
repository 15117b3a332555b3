import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted((README.parent / "src" / "convtree").glob("*.py"))
# a backticked `module.name`; a name followed by "." or "-" is a perfbench
# metric such as `tree.sum.s` or `tree.max-numeric.s`, not a citation
CITATION = re.compile(r"`(numeric|fftconv|tree|pmf|harness|cli|io)\.([A-Za-z_]\w*)(?![\w.-])")


def test_readme_quick_start_runs():
    # the first python block of the README, run as written
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert len(namespace["best_outcomes"]) == 32


def test_doc_citations_name_existing_attributes():
    # every module attribute that README.md or a package docstring or
    # comment cites still exists
    cited = {(path.name, module, name) for path in (README, *SOURCES)
             for module, name in CITATION.findall(path.read_text())}
    assert cited
    missing = [(path, f"{module}.{name}") for path, module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"convtree.{module}"), name)]
    assert missing == []
