"""Every script under ``examples/`` imports cleanly.

Nothing else imports the examples, so removing or renaming a public name they
use would otherwise break them without any test failing.  Each script is
loaded under a non-``__main__`` module name, so its ``main()`` is not run.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
