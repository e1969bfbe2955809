import os
import subprocess
import sys
from pathlib import Path

import desksearch


def test_importing_the_package_loads_no_module_and_no_numpy():
    """``import desksearch`` loads none of the package's modules and not
    numpy: each caller loads only the modules it imports."""
    src = str(Path(desksearch.__file__).resolve().parent.parent)
    code = (
        "import sys, desksearch; print(sorted(m for m in sys.modules"
        " if m.startswith('desksearch.') or m.split('.')[0] == 'numpy'))"
    )
    # A fresh interpreter: this one has imported the modules and numpy already.
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert run.stdout == "[]\n"
