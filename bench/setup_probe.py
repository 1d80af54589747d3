"""Set-up probe: a fresh interpreter gets ready for the first step on a config.

Run from the repository root as ``PYTHONPATH=src python bench/setup_probe.py
CONFIG``.  It imports ``rdasim.cli``, loads and validates the config, builds
the problem and assembles the transport operators once, then prints the
path of the imported package as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(config: str) -> int:
    import rdasim
    import rdasim.cli as cli
    from rdasim.integrator import Problem, TransportOperators

    cfg = cli.load_config(config)
    grid, system, coeff, boundary, *_ = cli._assemble(cfg, Path(config).resolve().parent)
    TransportOperators(Problem(grid, system, coeff, boundary), 0.0)
    print(json.dumps({"rdasim_file": rdasim.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
