"""The functions the benchmark wraps in spans must exist under their names.

`perfbench/spans.py` finds each traced function by module and name; a
rename in the program would leave that layer unmeasured.  This check
reads the same table and resolves every entry, solving nothing.
"""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_resolves():
    spans = runpy.run_path(str(SPANS))
    package, traced = spans["PACKAGE"], spans["TRACED"]
    assert traced
    missing = [
        f"{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"{package}.{module}"), name, None))
    ]
    assert missing == []
