"""One-call reproduction of the paper's whole evaluation.

:func:`reproduce_all` runs every Section 4/5/6 analysis over a collected
study and returns a structured :class:`PaperReport`;
:func:`render_report` turns it into the text document a reader would
diff against the paper.  The per-experiment benchmarks under
``benchmarks/`` remain the authoritative shape checks; this module is the
library-user-facing "give me everything" entry point.

The rows are formatted off a :class:`~repro.core.streaming.StudyFigures`
bundle, which both entry points build with the same per-home folds:
``compute_figures`` for a ``StudyData``, ``stream_figures`` for a stream
source such as a :class:`~repro.core.streaming.StoreSource`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

import numpy as np

from repro.core.datasets import DatasetSummary, StudyData
from repro.core.records import Spectrum
from repro.core.report import render_comparison, render_table
from repro.core.streaming import (
    StudyFigures,
    compute_figures,
    stream_figures,
)
from repro.core import usage


@dataclass(frozen=True)
class ExperimentRow:
    """One paper-vs-measured line of the final report."""

    experiment: str
    quantity: str
    paper: str
    measured: object


@dataclass
class PaperReport:
    """Every reproduced number, grouped by paper section."""

    datasets: List[DatasetSummary]
    section4: List[ExperimentRow] = field(default_factory=list)
    section5: List[ExperimentRow] = field(default_factory=list)
    section6: List[ExperimentRow] = field(default_factory=list)

    def rows(self) -> List[ExperimentRow]:
        """All rows in paper order."""
        return self.section4 + self.section5 + self.section6

    def by_experiment(self) -> Dict[str, List[ExperimentRow]]:
        """Rows grouped by experiment label (e.g. ``"Fig. 3"``)."""
        grouped: Dict[str, List[ExperimentRow]] = {}
        for row in self.rows():
            grouped.setdefault(row.experiment, []).append(row)
        return grouped


def _section4_rows(figures: StudyFigures) -> List[ExperimentRow]:
    rows: List[ExperimentRow] = []
    dev = figures.fig3["developed"]
    dvg = figures.fig3["developing"]
    if dev.n and dvg.n:
        rows.append(ExperimentRow(
            "Fig. 3", "median downtimes/day developed vs developing",
            "~0.03 vs ~1", f"{dev.median:.3f} vs {dvg.median:.3f}"))
    dur_dev = figures.fig4["developed"]
    dur_dvg = figures.fig4["developing"]
    if dur_dev.n and dur_dvg.n:
        rows.append(ExperimentRow(
            "Fig. 4", "median downtime minutes developed vs developing",
            "~30 vs ~30 (longer tail)",
            f"{dur_dev.median / 60:.0f} vs {dur_dvg.median / 60:.0f}"))
    if figures.fig5:
        worst = sorted(figures.fig5, key=lambda p: -p.median_downtimes)[:2]
        rows.append(ExperimentRow(
            "Fig. 5", "two worst countries", "IN, PK",
            ", ".join(sorted(p.country_code for p in worst))))
    by_country = figures.table3_availability
    for code, paper in (("US", "98.25%"), ("IN", "76.01%"),
                        ("ZA", "85.57%")):
        if code in by_country:
            rows.append(ExperimentRow(
                "Table 3", f"median {code} availability", paper,
                f"{by_country[code]:.2%}"))
    return rows


def _section5_rows(figures: StudyFigures) -> List[ExperimentRow]:
    rows: List[ExperimentRow] = []
    cdf = figures.fig7
    if cdf.n:
        rows.append(ExperimentRow(
            "Fig. 7", "mean devices per home", "~7",
            round(cdf.mean, 2)))
        rows.append(ExperimentRow(
            "Fig. 7", "P(>=5 devices)", "> 0.5",
            round(cdf.fraction_at_least(5), 2)))
    for label in ("developed", "developing"):
        medium = figures.fig8[label]
        if medium["wired"].n:
            rows.append(ExperimentRow(
                "Fig. 8", f"wireless vs wired connected ({label})",
                "wireless > wired",
                f"{medium['wireless'].mean:.2f} vs "
                f"{medium['wired'].mean:.2f}"))
    table5 = {row.group: row for row in figures.table5}
    if table5["developed"].total_households:
        rows.append(ExperimentRow(
            "Table 5", "always-wired homes developed vs developing",
            "43% vs 12%",
            f"{table5['developed'].wired_fraction:.0%} vs "
            f"{table5['developing'].wired_fraction:.0%}"))
    ap_dev = figures.fig11[(Spectrum.GHZ_2_4, "developed")]
    ap_dvg = figures.fig11[(Spectrum.GHZ_2_4, "developing")]
    if ap_dev.n and ap_dvg.n:
        rows.append(ExperimentRow(
            "Fig. 11", "median neighbor APs developed vs developing",
            "~20 vs ~2", f"{ap_dev.median:.0f} vs {ap_dvg.median:.0f}"))
    if figures.fig12:
        rows.append(ExperimentRow(
            "Fig. 12", "most common manufacturer", "Apple",
            next(iter(figures.fig12))))
    return rows


def _section6_rows(figures: StudyFigures) -> List[ExperimentRow]:
    rows: List[ExperimentRow] = []
    weekday = figures.fig13["weekday"]
    weekend = figures.fig13["weekend"]
    if weekday.counts.sum() and weekend.counts.sum():
        rows.append(ExperimentRow(
            "Fig. 13", "weekday peak hour (local)", "evening",
            f"{weekday.peak_hour}:00"))
        rows.append(ExperimentRow(
            "Fig. 13", "weekday/weekend amplitude ratio", "> 1",
            round(figures.section6.weekday_weekend_amplitude_ratio, 2)))
    points = figures.fig15
    if points:
        over = usage.saturating_uplink_homes(points)
        rows.append(ExperimentRow(
            "Fig. 15", "homes with uplink utilization > 1", "2", len(over)))
        below_half = np.mean([p.downlink_utilization < 0.5 for p in points])
        rows.append(ExperimentRow(
            "Fig. 15", "homes under 50% downlink at p95", "most",
            f"{below_half:.0%}"))
    device_shares = figures.fig17
    if device_shares.size and device_shares[0] > 0:
        rows.append(ExperimentRow(
            "Fig. 17", "top / second device share", "~65% / ~20%",
            f"{device_shares[0]:.0%} / {device_shares[1]:.0%}"))
    domains = figures.fig19
    if domains.volume_share_by_rank.size and domains.volume_share_by_rank[0]:
        rows.append(ExperimentRow(
            "Fig. 19", "top domain volume share", "~38%",
            f"{domains.volume_share_by_rank[0]:.0%}"))
        rows.append(ExperimentRow(
            "Fig. 19", "whitelist byte coverage", "~65%",
            f"{domains.whitelist_byte_coverage:.0%}"))
    return rows


def report_from_figures(figures: StudyFigures) -> PaperReport:
    """Format one figure bundle into the paper-vs-measured report."""
    return PaperReport(
        datasets=figures.datasets,
        section4=_section4_rows(figures),
        section5=_section5_rows(figures),
        section6=_section6_rows(figures),
    )


def reproduce_all(data: Union[StudyData, StudyFigures, object]
                  ) -> PaperReport:
    """Compute the full paper-vs-measured report for one study.

    Accepts a :class:`StudyData` (analyzed with uncompressed sketches), an
    already-computed :class:`StudyFigures` bundle, or a stream source
    (anything with an ``iter_homes`` method, e.g.
    ``StoreSource``/``StudyDataSource``), analyzed at sketch memory.
    """
    if isinstance(data, StudyData):
        figures = compute_figures(data)
    elif isinstance(data, StudyFigures):
        figures = data
    elif hasattr(data, "iter_homes"):
        figures = stream_figures(data)
    else:
        raise TypeError(
            "reproduce_all wants StudyData, StudyFigures, or a stream "
            f"source, got {type(data).__name__}")
    return report_from_figures(figures)


def render_report(report: PaperReport) -> str:
    """Render a :class:`PaperReport` as the full text document."""
    sections = [render_table(
        ["dataset", "kind", "routers", "countries"],
        [(row.name, row.kind, row.routers, row.countries)
         for row in report.datasets],
        title="Table 2 — data sets")]
    for title, rows in (("Section 4 — availability", report.section4),
                        ("Section 5 — infrastructure", report.section5),
                        ("Section 6 — usage", report.section6)):
        if rows:
            sections.append(render_comparison(title, [
                (f"{row.experiment}: {row.quantity}", row.paper,
                 row.measured) for row in rows]))
    return "\n\n".join(sections)
