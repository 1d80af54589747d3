"""A run's per-step rows, gathered through its `on_steps` consumer."""

from types import SimpleNamespace

import numpy as np

from rdasim.integrator import run


def run_with_steps(initial, cfg, problem):
    """`run`, and the step rows of every block it hands over, as named columns.

    The rows are t | masses | sup-norms | min | dt | halvings; `dts` and
    `halvings` leave out the initial state's row.
    """
    blocks = []
    traj = run(initial, cfg, problem, on_steps=lambda rows: blocks.append(rows.copy()))
    rows, m = np.concatenate(blocks), problem.system.m
    return traj, SimpleNamespace(
        times=rows[:, 0].copy(),
        masses=rows[:, 1:1 + m].copy(),
        supnorms=rows[:, 1 + m:1 + 2 * m].copy(),
        minima=rows[:, 1 + 2 * m].copy(),
        dts=rows[1:, 2 + 2 * m].copy(),
        halvings=rows[1:, 3 + 2 * m].astype(int),
    )
