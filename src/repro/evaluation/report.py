"""Plain-text chart rendering for the regenerated figures.

The paper's figures are bar charts; these helpers render the same series
as ASCII bars so a terminal run of ``python -m repro figures`` or the
benchmark harness reads like the paper's plots.
"""

from __future__ import annotations

BAR_WIDTH = 46


def hbar(value, scale, width=BAR_WIDTH, char="#"):
    """One horizontal bar scaled so ``scale`` fills ``width`` columns."""
    if scale <= 0:
        return ""
    filled = int(round(min(value / scale, 1.0) * width))
    return char * max(filled, 1 if value > 0 else 0)


def bar_chart(rows, title=None, unit="", width=BAR_WIDTH):
    """Render ``rows`` of (label, value) as a bar chart.

    Values are scaled to the maximum; each line shows the label, the
    bar, and the numeric value.
    """
    lines = []
    if title:
        lines.append(title)
    if not rows:
        return "\n".join(lines + ["(no data)"])
    peak = max(value for _label, value in rows)
    label_width = max(len(label) for label, _value in rows)
    for label, value in rows:
        lines.append(
            "{:<{lw}s} |{:<{bw}s} {:8.1f}{}".format(
                label,
                hbar(value, peak, width),
                value,
                unit,
                lw=label_width,
                bw=width,
            )
        )
    return "\n".join(lines)


def grouped_bar_chart(groups, title=None, unit="x", width=BAR_WIDTH):
    """Render ``groups``: list of (group_label, [(series, value), ...])."""
    lines = []
    if title:
        lines.append(title)
    peak = max(
        (value for _g, rows in groups for _s, value in rows), default=0.0
    )
    for group_label, rows in groups:
        lines.append(group_label)
        series_width = max((len(s) for s, _v in rows), default=0)
        for series, value in rows:
            lines.append(
                "  {:<{sw}s} |{:<{bw}s} {:7.2f}{}".format(
                    series,
                    hbar(value, peak, width),
                    value,
                    unit,
                    sw=series_width,
                    bw=width,
                )
            )
    return "\n".join(lines)


def stacked_fraction_chart(rows, stages, title=None, width=60):
    """Render Figure 9-style stacked fraction bars.

    ``rows``: list of (label, {stage: fraction}); ``stages``: ordered
    (stage_name, glyph) pairs.
    """
    lines = []
    if title:
        lines.append(title)
    legend = "  ".join("{}={}".format(glyph, name) for name, glyph in stages)
    lines.append("legend: " + legend)
    label_width = max((len(label) for label, _r in rows), default=0)
    for label, fractions in rows:
        bar = []
        for name, glyph in stages:
            cells = int(round(fractions.get(name, 0.0) * width))
            bar.append(glyph * cells)
        text = "".join(bar)[:width]
        lines.append(
            "{:<{lw}s} |{:<{w}s}|".format(label, text, lw=label_width, w=width)
        )
    return "\n".join(lines)


def figure7_chart(table, target):
    """Bar chart of one Figure 7 column."""
    rows = [(name, row[target]) for name, row in table.items()]
    return bar_chart(
        rows,
        title="Figure 7 — end-to-end speedup on {} (vs Lime bytecode)".format(
            target
        ),
        unit="x",
    )


def figure8_chart(table, gpu):
    """Grouped bars of Figure 8 for one GPU."""
    groups = []
    for name, row in table[gpu].items():
        series = [(k, v) for k, v in row.items() if not k.startswith("_")]
        groups.append((name, series))
    return grouped_bar_chart(
        groups,
        title="Figure 8 — speedup over hand-tuned OpenCL on {}".format(gpu),
    )


FIGURE9_STAGES = [
    ("kernel", "#"),
    ("java_marshal", "J"),
    ("c_marshal", "c"),
    ("opencl_setup", "s"),
    ("transfer", "t"),
    ("host_compute", "h"),
]


def figure9_chart(table, target):
    rows = [
        (name, {k: v for k, v in row.items() if not k.startswith("_")})
        for name, row in table.items()
    ]
    return stacked_fraction_chart(
        rows,
        FIGURE9_STAGES,
        title="Figure 9 — execution-time breakdown on {}".format(target),
    )
