"""CSV and SVG report writers. SVG is hand-rolled: dependency-free,
deterministic, diffable."""

from __future__ import annotations

import colorsys
from typing import Sequence

from .core import PlacePartition, TrainingSet, membership_labels
from .sched import Schedule

# One color per training season, cycling beyond four.
SEASON_COLORS = ("#4caf50", "#f44336", "#ff9800", "#2196f3")


def class_color(class_id: int) -> str:
    """Stable palette over arbitrarily many classes (golden-angle hues)."""
    hue = (class_id * 0.618033988749895) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.65, 0.85)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def results_csv(rows: Sequence[dict]) -> str:
    lines = ["mission,strategy,upd,error,mode,success_ratio"]
    for r in rows:
        lines.append(
            f"{r['mission']},{r['strategy']},{r['upd']},{r['error']:g},"
            f"{r['mode']},{r['success_ratio']!r}"
        )
    return "\n".join(lines) + "\n"


def schedule_csv(schedule: Schedule) -> str:
    lines = ["slot,history"]
    for slot, bits in enumerate(schedule.bit_strings()):
        lines.append(f"{slot},{bits}")
    return "\n".join(lines) + "\n"


def schedule_text(schedule: Schedule) -> str:
    lines = []
    for slot, h in enumerate(schedule.histories):
        lines.append(f"slot {slot}: " + " ".join(str(b) for b in h.bits))
    return "\n".join(lines)


def schedule_svg(schedule: Schedule, title: str = "") -> str:
    """Grid of colored boxes: rows are ensemble slots, columns are missions,
    a filled box means that slot fine-tuned on that season."""
    n_rows = len(schedule.histories)
    n_cols = schedule.mission
    cell, pad, top = 36, 46, 34
    width = pad + n_cols * cell + 12
    height = top + n_rows * cell + 12
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text{font-family:monospace;font-size:12px}</style>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{pad}" y="16" font-weight="bold">{title}</text>')
    for c in range(n_cols):
        parts.append(
            f'<text x="{pad + c * cell + cell // 2 - 8}" y="{top - 6}">D{c + 1}</text>'
        )
    for r, hist in enumerate(schedule.histories):
        parts.append(f'<text x="4" y="{top + r * cell + cell // 2 + 4}">C{r}</text>')
        for c, bit in enumerate(hist.bits):
            x, y = pad + c * cell, top + r * cell
            fill = SEASON_COLORS[c % len(SEASON_COLORS)] if bit else "white"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell - 2}" height="{cell - 2}" '
                f'fill="{fill}" stroke="#555"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def success_svg(series: dict[str, list[tuple[int, float]]],
                title: str = "success ratio vs mission") -> str:
    """Line chart of success ratio (0..1) against mission id, one polyline
    per labeled series (typically one per error threshold)."""
    width, height = 420, 300
    left, right, top, bottom = 52, 14, 34, 40
    plot_w, plot_h = width - left - right, height - top - bottom
    missions = sorted({m for pts in series.values() for m, _ in pts})
    if not missions:
        raise ValueError("no data points to plot")
    m_lo, m_hi = missions[0], missions[-1]
    span = max(m_hi - m_lo, 1)

    def sx(m: int) -> float:
        return left + plot_w * (m - m_lo) / span

    def sy(v: float) -> float:
        return top + plot_h * (1.0 - v)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text{font-family:monospace;font-size:11px}</style>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="16" font-weight="bold">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(tick)
        parts.append(f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="8" y="{y + 4:.1f}">{tick:.2f}</text>')
    for m in missions:
        x = sx(m)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" y2="{top + plot_h + 4}" '
            f'stroke="#333"/>'
        )
        parts.append(f'<text x="{x - 3:.1f}" y="{height - 22}">{m}</text>')
    parts.append(f'<text x="{left + plot_w // 2 - 28}" y="{height - 6}">mission id</text>')
    for idx, (label, pts) in enumerate(sorted(series.items())):
        color = SEASON_COLORS[idx % len(SEASON_COLORS)]
        coords = " ".join(f"{sx(m):.1f},{sy(v):.1f}" for m, v in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for m, v in sorted(pts):
            parts.append(f'<circle cx="{sx(m):.1f}" cy="{sy(v):.1f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{left + 8}" y="{top + 14 + 14 * idx}" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def partition_csv(partition: PlacePartition) -> str:
    pairs = sorted((m, cls.class_id) for cls in partition.classes for m in cls.members.tolist())
    lines = ["image_id,class_id"]
    lines.extend(f"{img_id},{class_id}" for img_id, class_id in pairs)
    return "\n".join(lines) + "\n"


def partition_svg(train: TrainingSet, partition: PlacePartition,
                  size: int = 480) -> str:
    """Trajectory overlay: one dot per image, colored by place class."""
    xs, ys = train.poses[:, 0].tolist(), train.poses[:, 1].tolist()
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    margin = 20.0
    scale = (size - 2 * margin) / span

    def px(x: float) -> float:
        return margin + (x - x_lo) * scale

    def py(y: float) -> float:
        return size - margin - (y - y_lo) * scale  # y up

    labels = membership_labels(partition, len(train)).tolist()
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    path_pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{path_pts}" fill="none" stroke="#ddd" stroke-width="1"/>')
    for x, y, label in zip(xs, ys, labels):
        parts.append(
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" fill="{class_color(label)}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def margins_csv(rows: Sequence[dict]) -> str:
    lines = ["image_id,class_id,pos_dist,ang_diff,feat_dist"]
    for r in rows:
        lines.append(
            f"{r['image_id']},{r['class_id']},{r['pos_dist']!r},"
            f"{r['ang_diff']!r},{r['feat_dist']!r}"
        )
    return "\n".join(lines) + "\n"
