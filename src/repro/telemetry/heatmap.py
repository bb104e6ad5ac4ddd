"""Wear-heatmap snapshotter: per-bank wear matrices at epoch granularity.

The Mellow Writes lifetime argument is about the *distribution* of wear
across banks, not just the total: a single hot bank dies first and takes
the device with it.  The snapshotter turns the :class:`WearTracker`'s
cumulative per-bank damage into a matrix ``rows[epoch][bank]`` so
lifetime-variation plots (and the SoftWear/WoLFRaM-style heatmaps) fall
straight out of one JSON file.

The snapshotter polls a probe callable at each epoch close; it never
walks the tracker's write log itself, so a snapshot is O(num_banks).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

WearProbe = Callable[[], Sequence[float]]


class WearHeatmap:
    """Accumulates one per-bank wear row per sampled epoch."""

    def __init__(self, num_banks: int) -> None:
        if num_banks < 1:
            raise ValueError(f"num_banks must be >= 1, got {num_banks}")
        self.num_banks = num_banks
        self._probe: WearProbe | None = None
        self.epoch_times_ns: List[float] = []
        self.rows: List[List[float]] = []

    def set_probe(self, probe: WearProbe) -> None:
        self._probe = probe

    @property
    def active(self) -> bool:
        """Whether a probe is attached (snapshots are being recorded)."""
        return self._probe is not None

    def snapshot(self, now_ns: float) -> None:
        """Record one epoch row; no-op until a probe is attached.

        The probe call doubles as the epoch flush point for buffered wear
        accounting: :meth:`repro.endurance.wear.WearTracker.bank_damages`
        folds the pending whole-write buffers into the per-bank records
        before reporting, so heatmap rows equal unbuffered accounting.
        The shape check runs on the raw
        probe result, before the row copy, so a misbehaving probe fails
        loudly without a partially-built row being allocated first.
        """
        if self._probe is None:
            return
        values = self._probe()
        if len(values) != self.num_banks:
            raise ValueError(
                f"wear probe returned {len(values)} values for "
                f"{self.num_banks} banks")
        self.epoch_times_ns.append(now_ns)
        self.rows.append([float(v) for v in values])

    @property
    def num_epochs(self) -> int:
        return len(self.rows)

    def deltas(self) -> List[List[float]]:
        """Per-epoch wear increments (row minus previous row)."""
        out: List[List[float]] = []
        prev = [0.0] * self.num_banks
        for row in self.rows:
            out.append([cur - before for cur, before in zip(row, prev)])
            prev = row
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_banks": self.num_banks,
            "epoch_times_ns": list(self.epoch_times_ns),
            "cumulative": [list(row) for row in self.rows],
            "deltas": self.deltas(),
        }
