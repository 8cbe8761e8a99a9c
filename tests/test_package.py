from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import seasonal_cusum

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(code: str) -> str:
    """Stdout of `code` run in a new interpreter that imports the package from this tree."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)}
    )
    return done.stdout.strip()


def test_every_exported_name_resolves():
    missing = [name for name in seasonal_cusum.__all__ if not hasattr(seasonal_cusum, name)]
    assert missing == []


def test_import_loads_no_numpy():
    assert _fresh("import seasonal_cusum, sys; print('numpy' in sys.modules)") == "False"


def test_star_import_binds_every_exported_name():
    code = "from seasonal_cusum import *; import seasonal_cusum; print(sorted(set(seasonal_cusum.__all__) - set(globals())))"
    assert _fresh(code) == "[]"


def test_submodule_is_an_attribute_after_a_bare_import():
    code = "import seasonal_cusum; print(seasonal_cusum.detect.run_events is seasonal_cusum.run_events)"
    assert _fresh(code) == "True"


def test_dir_lists_the_exports_before_they_load():
    code = "import seasonal_cusum, sys; print(set(seasonal_cusum.__all__) <= set(dir(seasonal_cusum)), 'numpy' in sys.modules)"
    assert _fresh(code) == "True False"


def test_unknown_name_is_an_attribute_error_naming_it():
    code = "import seasonal_cusum\ntry:\n    seasonal_cusum.no_such_name\nexcept AttributeError as exc:\n    print(exc)"
    assert _fresh(code) == "module 'seasonal_cusum' has no attribute 'no_such_name'"
