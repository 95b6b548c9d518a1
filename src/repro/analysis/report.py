"""Plain-text rendering of experiment outputs.

The benchmark harness prints the paper's figures as text: Figure 1
becomes a probability histogram, Figure 5 a sorted stacked bar chart.
Everything renders with plain ASCII so it reads the same in any log.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], title: str | None = None
) -> str:
    """Fixed-width table with a header rule."""
    columns = len(headers)
    widths = [len(str(header)) for header in headers]
    for row in rows:
        if len(row) != columns:
            raise ValueError("row width does not match headers")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(str(cell).rjust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)


def sweep_summary(
    *,
    seeds: int,
    elapsed_s: float,
    cache_hits: int,
    errors: int,
    workers: int,
) -> str:
    """One-line throughput summary of a seeded sweep.

    Printed by the CLI and the benchmark drivers after each experiment,
    e.g. ``sweep: 20 seeds in 1.9s (10.4 seeds/s, 12 cache hits,
    0 errors, 4 workers)``.
    """
    rate = seeds / elapsed_s if elapsed_s > 0 else 0.0
    return (
        f"sweep: {seeds} seeds in {elapsed_s:.1f}s "
        f"({rate:.1f} seeds/s, {cache_hits} cache hits, "
        f"{errors} errors, {workers} workers)"
    )


def histogram_table(
    counts: Mapping[int, int], title: str, width: int = 40
) -> str:
    """Probability histogram like the paper's Figure 1 (right side)."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty histogram")
    lines = [title]
    for value in sorted(counts):
        probability = counts[value] / total
        bar = "#" * max(1 if counts[value] else 0, round(probability * width))
        lines.append(f"  {value}: {probability:6.3f} |{bar}")
    return "\n".join(lines)


def _errors_line(errors: Mapping[str, int]) -> str:
    nonzero = {name: count for name, count in errors.items() if count}
    if not nonzero:
        return "none"
    return "  ".join(f"{name}={count}" for name, count in sorted(nonzero.items()))


def exploration_report(result) -> str:
    """Human-readable rendering of an exploration run.

    *result* is an :class:`repro.explore.explorer.ExplorationResult`;
    duck-typed so this module stays free of explore imports.
    """
    lines = [
        f"explore ({result.strategy}): "
        + (
            f"failing schedule found at execution {result.found.index}"
            if result.found is not None
            else f"no failure in {len(result.executions)} executions"
        ),
        f"  budget: {result.executions_used}/{result.budget} executions used, "
        f"horizon {result.horizon} dispatches",
    ]
    if result.found is not None:
        schedule = result.found.schedule
        lines.append(
            f"  schedule: base seed {schedule.base_seed}, "
            f"{len(schedule.preemptions)} preemption point(s)"
        )
        for point in schedule.preemptions:
            lines.append(f"    {point.describe()}")
        lines.append(f"  errors: {_errors_line(result.found.errors)}")
    return "\n".join(lines)


def shrink_report(result) -> str:
    """Human-readable rendering of a ddmin shrink.

    *result* is a :class:`repro.explore.shrink.ShrinkResult`.  The
    payoff line is the diagnosis: the failure needs *exactly* the
    remaining preemptions — removing any one of them makes it vanish.
    """
    kept = len(result.minimal.preemptions)
    lines = [
        f"shrink: {len(result.original.preemptions)} -> {kept} "
        f"preemption(s) in {result.trials} trials "
        f"({result.removed} removed)",
        f"  the failure needs exactly "
        + (f"these {kept} preemptions:" if kept != 1 else "this 1 preemption:"),
    ]
    for point in result.minimal.preemptions:
        lines.append(f"    {point.describe()}")
    lines.append(f"  errors: {_errors_line(result.errors)}")
    return "\n".join(lines)


def verification_report(result) -> str:
    """Human-readable rendering of a determinism verification.

    *result* is a :class:`repro.explore.verify.VerificationResult`.
    """
    lines = [
        f"determinism verification: {result.schedules} schedules",
        f"  identical: {result.identical}  flagged: {len(result.flagged)}  "
        f"silent divergences: {len(result.silent_divergences)}",
    ]
    for verdict in result.silent_divergences:
        lines.append(f"  SILENT DIVERGENCE: {verdict.label}")
    lines.append(
        "  verdict: "
        + (
            "OK - divergence only ever with a violation flagged"
            if result.ok
            else "FAILED - trace diverged without any violation flagged"
        )
    )
    return "\n".join(lines)


def ascii_bar_chart(
    rows: Sequence[tuple[str, Mapping[str, float]]],
    categories: Sequence[str],
    title: str,
    width: int = 50,
    unit: str = "%",
) -> str:
    """Stacked horizontal bars like the paper's Figure 5.

    *rows* is ``[(label, {category: value})]``; each bar is scaled to the
    global maximum total and drawn with one letter per category.
    """
    letters = {}
    for index, category in enumerate(categories):
        letters[category] = chr(ord("A") + index)
    totals = [sum(values.values()) for _label, values in rows]
    maximum = max(totals) if totals else 0.0
    lines = [title]
    for category in categories:
        lines.append(f"  {letters[category]} = {category}")
    for (label, values), total in zip(rows, totals):
        bar = ""
        if maximum > 0:
            for category in categories:
                segment = round(values.get(category, 0.0) / maximum * width)
                bar += letters[category] * segment
        lines.append(f"  {label:>12} {total:8.3f}{unit} |{bar}")
    return "\n".join(lines)
