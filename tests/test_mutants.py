"""The mutation list in tools/mutants.py still names code in the tree:
every snippet occurs exactly once in its file, and every test id names a
test function that exists.  The mutants themselves run only from the
script."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_snippet_occurs_exactly_once():
    mutants = load_mutants()
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert (ROOT / m.path).read_text().count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet and m.tests, m.name
        for test_id in m.tests:
            path, func = test_id.split("::")
            assert f"def {func.split('[')[0]}(" in (ROOT / path).read_text(), test_id
