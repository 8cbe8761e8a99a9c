"""Seed-free oracles for the Monte Carlo estimates: Markov chains of the detector statistic.

Event time: time rescaling puts in-control events on a unit-rate Poisson
process along the cumulative-intensity axis, so the run length in events
has one law whatever the calendar, solved from one integral equation for
the expected further events (Brook & Evans 1972). Aggregated counts: V
moves once per slot by a Poisson count, so a chain over an atom at 0 and
cells of [0, m) carries its distribution slot by slot (Lucas 1985 for
Poisson CUSUMs). The Poisson CDF comes from scipy, a test dependency.
"""

from __future__ import annotations

import numpy as np

from seasonal_cusum.detect import INCREASE
from seasonal_cusum.simulate import slot_means_with_change


def _exp_cells(a, c, s, sigma, beta):
    """Per cell [a, c], the integrals of beta**-1 exp(sigma (y - s) / beta) dy and of the same times (y - a)."""
    ga, gc = np.exp(sigma * (a - s) / beta), np.exp(sigma * (c - s) / beta)
    return sigma * (gc - ga), sigma * gc * (c - a) - beta * (gc - ga)


def event_chain_arl(config, nodes=400):
    """Seed-free oracle: the in-control ARL in events of the event-time detector, for a threshold m > 1.

    With L the expected further events from a post-jump state, on the
    unit-rate axis with drift beta per unit:
    increase, x in [1, m]: L(x) = 1 + exp(-x/b) L(1) + int_1^min(x+1, m) exp(-(x+1-y)/b)/b L(y) dy,
    and ARL = 1 + L(1);
    decrease, w in [0, m-1]: L(w) = 1 - exp(-(m-w)/b) + (1 - exp(-(1-w)/b))+ L(0)
    + int_max(0, w-1)^(m-1) exp(-(y+1-w)/b)/b L(y) dy, and ARL = L(0).
    L is piecewise linear on `nodes` + 1 uniform nodes, the last read as the
    left limit at the domain's end; the kernel is integrated exactly per cell.
    """
    m, b, up = config.threshold_m, config.beta, config.direction == INCREASE
    if not m > 1:
        raise ValueError("the chain's domain needs m > 1")
    lo = 1.0 if up else 0.0
    x = lo + np.linspace(0.0, m - 1.0, nodes + 1)  # the nodes; each row's equation is read at one
    h = x[1] - x[0]
    rows = x[:, None]
    if up:  # cells clipped to [1, min(x + 1, m)], kernel exp((y - (x + 1)) / b)
        a, c = np.broadcast_arrays(x[None, :-1], np.minimum(x[None, 1:], rows + 1.0))
        s, sigma = rows + 1.0, 1.0
        free = 1.0 + 0.0 * x
        atom = np.exp(-x / b)
    else:  # cells clipped to [max(0, w - 1), m - 1], kernel exp(-(y - (w - 1)) / b)
        a, c = np.broadcast_arrays(np.maximum(x[None, :-1], rows - 1.0), x[None, 1:])
        s, sigma = rows - 1.0, -1.0
        free = 1.0 - np.exp(-(m - x) / b)
        atom = np.clip(1.0 - np.exp(-(1.0 - x) / b), 0.0, None)
    c = np.maximum(a, c)  # an empty cell integrates to 0
    i0, i1 = _exp_cells(a, c, s, sigma, b)
    # L(y) on cell j reads (L_j (x_{j+1} - y) + L_{j+1} (y - x_j)) / h; (y - a) shifts to (y - x_j) by a - x_j.
    i1 = i1 + (a - x[None, :-1]) * i0
    kernel = np.zeros((nodes + 1, nodes + 1))
    kernel[:, :-1] += i0 - i1 / h
    kernel[:, 1:] += i1 / h
    kernel[:, 0] += atom
    L = np.linalg.solve(np.eye(nodes + 1) - kernel, free)
    return 1.0 + L[0] if up else L[0]


def _move(config, lam, mu, x, tops, shift=0):
    """One slot of the aggregated chain: P(V' = 0) and P(V' in each cell) from each state.

    The detector's drift is beta * lam and its count k ~ Poisson(mu). With
    shift=-1 each entry is E[k; move] / mu instead, as k P(k) = mu P(k - 1).
    """
    from scipy.stats import poisson

    d = config.beta * lam
    # The Poisson CDF (increase) or survival function (decrease) at n = -2 .. m + d + 2, past which neither moves.
    n = np.arange(-2, np.ceil(config.threshold_m + d) + 3)
    table = (poisson.cdf if config.direction == INCREASE else poisson.sf)(n, mu)

    def at(k):
        return table[np.clip(k.astype(np.int64) + shift + 2, 0, len(n) - 1)]

    if config.direction == INCREASE:  # P(V' <= 0) and P(V' < top) with V' = x + k - d
        atom, below = at(np.floor(d - x)), at(np.ceil(tops - x + d) - 1)
    else:  # P(k >= x + d) and P(k > x + d - top) with V' = x + d - k
        atom, below = at(np.ceil(x + d) - 1), at(np.floor(x + d - tops))
    return np.hstack([atom, np.diff(np.hstack([atom, below]), axis=1)])


def _grid(config, cells):
    """The chain's states (an atom at 0, then each cell's midpoint) as a column, and the cells' tops."""
    width = config.threshold_m / cells
    x = np.concatenate([[0.0], (np.arange(cells) + 0.5) * width])[:, None]
    return x, np.arange(1, cells + 1) * width


def chain_arl(timeline, config, cycles, cells=100):
    """Seed-free oracle: the aggregated ARL from a periodic Brook-Evans chain over `cycles` tiled cycles.

    V' = max(0, V + k - beta * mu) for increase, max(0, V + beta * mu - k)
    for decrease, with k ~ Poisson(mu) in a slot of mean mu and an alarm at
    V' >= m. V lives on an atom at 0 plus `cells` cells of [0, m), each read
    at its midpoint (Brook & Evans 1972), and each slot moves the surviving
    mass through one substochastic matrix. k_t does not depend on the event
    {tau >= t}, so the expected events to alarm are sum_t mu_t P(tau >= t).
    Summed up to the horizon, a path that never alarms counts its horizon
    total, as a censored Monte Carlo path does.
    """
    x, tops = _grid(config, cells)
    steps = [(mu, _move(config, mu, mu, x, tops)) for mu in timeline.means.tolist()]
    alive = np.zeros(cells + 1)
    alive[0] = 1.0
    arl = 0.0
    for _ in range(cycles):
        for mu, move in steps:
            arl += mu * alive.sum()
            alive = alive @ move
    return arl


def chain_delay(timeline, change, config, cells=100):
    """Seed-free oracle: (mean delay in events, detection probability) of `detection_delay`, with reset.

    The in-control distribution is carried, alarm mass returning to the
    atom, up to the first slot ending at or after the change. From there the
    survival mass p and the count-weighted mass w (the events counted since
    the change on each surviving path) are carried, and the mean delay is
    sum(w A0 + p A1) / sum(p A0), with A0 a slot's alarm probability and A1
    its count-weighted alarm probability. A slot ending at the change time
    counts its events as before the change, so it adds none to the delay.
    """
    x, tops = _grid(config, cells)
    lams, means = timeline.means.tolist(), slot_means_with_change(timeline, change).tolist()
    start = int(np.searchsorted(timeline.ends, change.theta, side="left"))
    counted = int(np.searchsorted(timeline.ends, change.theta, side="right"))  # the first slot counted as after
    dist = np.zeros(cells + 1)
    dist[0] = 1.0
    for lam in lams[:start]:
        dist = dist @ _move(config, lam, lam, x, tops)
        dist[0] += 1.0 - dist.sum()  # alarms reset V to 0
    p, w, weighted, detected = dist, np.zeros(cells + 1), 0.0, 0.0
    for t in range(start, len(lams)):
        lam, mu = lams[t], means[t]
        move = _move(config, lam, mu, x, tops)
        a0 = 1.0 - move.sum(axis=1)
        if t >= counted:
            move1 = mu * _move(config, lam, mu, x, tops, shift=-1)
            a1 = mu - move1.sum(axis=1)
        else:
            move1, a1 = np.zeros_like(move), np.zeros(cells + 1)
        weighted += w @ a0 + p @ a1
        detected += p @ a0
        p, w = p @ move, w @ move + p @ move1
    return weighted / detected, detected
