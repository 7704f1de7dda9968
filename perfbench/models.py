"""Reference models the benchmark checks the program's outputs against.

Both are written here from the paper's formulas, apart from the
program's own :mod:`repro.analytic` code, so a fault there cannot hide
a fault in the simulation it is compared with.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def eq1_rate(ri_bps: Sequence[float], capacity_bps: float,
             available_bps: float) -> np.ndarray:
    """Equation (1): the output rate of a FIFO hop,
    ``ro = min(ri, C ri / (ri + C - A))``."""
    ri = np.asarray(ri_bps, dtype=float)
    return np.minimum(ri, capacity_bps * ri
                      / (ri + capacity_bps - available_bps))


def bianchi_tau(n_stations: int, cw_min: int, stages: int) -> float:
    """Per-station transmission probability of Bianchi's fixed point.

    ``tau = 2(1-2p) / ((1-2p)(W+1) + pW(1-(2p)^m))`` with
    ``p = 1 - (1-tau)^(n-1)`` and ``W = cw_min + 1``.  The map
    ``tau -> tau - tau(p(tau))`` increases on ``(0, 2/(W+1)]``, so
    bisection on ``tau`` finds the unique root.
    """
    w = cw_min + 1

    def tau_of(p: float) -> float:
        return 2 * (1 - 2 * p) / ((1 - 2 * p) * (w + 1)
                                  + p * w * (1 - (2 * p) ** stages))

    lo, hi = 0.0, 2.0 / (w + 1)
    if n_stations == 1:
        return hi
    for _ in range(200):
        mid = (lo + hi) / 2
        p = 1 - (1 - mid) ** (n_stations - 1)
        if mid - tau_of(p) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def backoff_stages(cw_min: int, cw_max: int) -> int:
    """Number of window doublings from ``cw_min`` until ``cw_max``."""
    stages, cw = 0, cw_min
    while cw < cw_max:
        cw = min(cw_max, 2 * cw + 1)
        stages += 1
    return stages


def bianchi_throughput_bps(n_stations: int, phy, size_bytes: int) -> float:
    """Saturation throughput of ``n`` stations (Bianchi, basic access).

    ``phy`` supplies only the link's constants (slot, SIFS, DIFS, rates,
    preamble and header sizes, contention windows).  A success and a
    collision of equal-size frames occupy the channel for the same
    time: DATA, SIFS, ACK (or the ACK timeout), DIFS.
    """
    tau = bianchi_tau(n_stations, phy.cw_min,
                      backoff_stages(phy.cw_min, phy.cw_max))
    p_tr = 1 - (1 - tau) ** n_stations
    p_s = n_stations * tau * (1 - tau) ** (n_stations - 1) / p_tr
    data = (phy.plcp_overhead
            + (size_bytes + phy.mac_overhead_bytes) * 8 / phy.data_rate)
    ack = phy.plcp_overhead + phy.ack_bytes * 8 / phy.basic_rate
    difs = phy.sifs + phy.difs_slots * phy.slot_time
    busy = data + phy.sifs + ack + difs
    slot = (1 - p_tr) * phy.slot_time + p_tr * busy
    return p_tr * p_s * size_bytes * 8 / slot
