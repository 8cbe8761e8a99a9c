"""Benchmark inputs drawn with the benchmark's own seeded generator.

Counts and event times come from the ground-truth `synthetic_model()` slot
rates, sampled here with numpy rather than through the package's
simulators, so a change to `simulate` leaves the inputs unchanged. Files are
written in the CSV schemas the package reads, before any timing starts, and
their SHA-256 digests go into the result record.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import date, time, timedelta
from pathlib import Path

import numpy as np

DAY_OPEN_MINUTE = 7 * 60 + 30


def generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def date_range(first: date, days: int) -> list[date]:
    return [first + timedelta(days=i) for i in range(days)]


def slot_time(index: int) -> time:
    """Start of half-hour slot `index`, counted from 07:30."""
    minute = DAY_OPEN_MINUTE + 30 * index
    return time(minute // 60, minute % 60)


@dataclass
class SlotSeries:
    """Per-slot counts of consecutive days; `days[i]` has `len(counts[i])` open slots."""

    days: list[date]
    counts: list[np.ndarray]

    def write_csv(self, path: Path) -> None:
        lines = ["date,slot_start,count"]
        for d, row in zip(self.days, self.counts):
            iso = d.isoformat()
            lines.extend(f"{iso},{slot_time(k):%H:%M},{int(c)}" for k, c in enumerate(row))
        path.write_text("\n".join(lines) + "\n")

    def write_daily_csv(self, path: Path) -> None:
        lines = ["date,count"] + [f"{d.isoformat()},{int(row.sum())}" for d, row in zip(self.days, self.counts)]
        path.write_text("\n".join(lines) + "\n")


def slot_series(model, days: list[date], rng: np.random.Generator) -> SlotSeries:
    """Poisson counts per open slot at the model's rates; closed days are skipped."""
    kept, counts = [], []
    for d in days:
        rates = model.slot_rates(d)
        if len(rates):
            kept.append(d)
            counts.append(rng.poisson(rates))
    return SlotSeries(kept, counts)


def year_events(model, days: list[date], rng: np.random.Generator) -> tuple[SlotSeries, np.ndarray]:
    """Exact event times on the open-time axis (slot k covers [k, k+1)) and their slot counts."""
    series = slot_series(model, days, rng)
    per_slot = np.concatenate(series.counts)
    starts = np.repeat(np.arange(len(per_slot), dtype=float), per_slot)
    return series, np.sort(starts + rng.random(len(starts)))


def digests(paths: list[Path], base: Path) -> dict[str, str]:
    """SHA-256 of each file, keyed by its path relative to `base`."""
    return {str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}
