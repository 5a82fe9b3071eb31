"""The benchmark tracer's wrap sites resolve against the package.

perfbench/tracing.py replaces (module, attribute) pairs around a traced run;
a public name that is deleted or no longer imported where it names would make
`perfbench/run.py --trace 1` fail with AttributeError.  The tracer is loaded
from its file, unedited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
SITES = [*tracing.WRAP_SITES, tracing.WRITER_SITE, tracing.EVAL_F_SITE]


@pytest.mark.parametrize("module_name, attr, name", SITES, ids=[f"{m}.{a}" for m, a, _ in SITES])
def test_site_resolves(module_name, attr, name):
    assert callable(getattr(importlib.import_module(module_name), attr))

