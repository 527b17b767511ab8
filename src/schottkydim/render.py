"""Deterministic SVG rendering of nested disk families over the real axis."""

from __future__ import annotations

from typing import List

from .hyperbolic import ends_floats
from .schedule import GeneratorSchedule
from .words import count_words, disk_tree

# fixed level palette; cycled for deep trees
LEVEL_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                "#17becf", "#8c564b"]

MIN_VISIBLE_PX = 0.1

# Deepest tree, and most disks, one render builds, both checked before the
# tree is built: --m 7 --depth 5 draws 10,885 disks.
MAX_DEPTH = 5
MAX_NODES = 50_000


def svg_disk_tree(schedule: GeneratorSchedule, k: int, m: int, depth: int,
                  width_px: int = 1200, color_by_level: bool = True) -> str:
    """Render the depth-<=n disk tree as an SVG document.

    One circle element per node, colored by level.  Radii that would fall
    below 0.1 px are drawn as minimum-size markers with a distinct class so
    they stay visible; real radii survive in a data attribute for vector
    zooming tools.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if width_px < 1:
        raise ValueError(f"width must be >= 1 pixel, got {width_px}")
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds the configured maximum "
                         f"{MAX_DEPTH}")
    if count_words(m, depth, MAX_NODES) > MAX_NODES:
        raise ValueError(f"{m} letters to depth {depth} draw more than "
                         f"{MAX_NODES} disks")
    tree = disk_tree(schedule, k, m, depth)
    try:
        levels = [[(node.word, *ends_floats(node.ends)) for node in level]
                  for level in tree.levels]
    except OverflowError as exc:
        raise ValueError("a disk center or radius is beyond the float "
                         "range") from exc
    xs = []
    for _, c, r in levels[0]:
        xs.extend([c - r, c + r])
    x_min, x_max = min(xs), max(xs)
    span = x_max - x_min
    margin = 0.05 * span if span else 1.0
    x_min -= margin
    x_max += margin
    span = x_max - x_min
    max_r = max(r for _, _, r in levels[0])
    height = 2.2 * max_r
    px_per_unit = width_px / span
    min_r_units = MIN_VISIBLE_PX / px_per_unit

    lines: List[str] = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'viewBox="{x_min!r} {-height / 2!r} {span!r} {height!r}">')
    lines.append(f'<line x1="{x_min!r}" y1="0" x2="{x_max!r}" y2="0" '
                 f'stroke="#888" stroke-width="{span / width_px!r}"/>')
    for level_idx, level in enumerate(levels):
        color = (LEVEL_COLORS[level_idx % len(LEVEL_COLORS)]
                 if color_by_level else LEVEL_COLORS[0])
        stroke_w = span / width_px
        for word, c, r in level:
            if r < min_r_units:
                lines.append(
                    f'<circle class="marker" cx="{c!r}" cy="0" '
                    f'r="{min_r_units!r}" fill="{color}" fill-opacity="0.9" '
                    f'stroke="none" data-word="{word}" '
                    f'data-radius="{r!r}"/>')
            else:
                lines.append(
                    f'<circle class="disk" cx="{c!r}" cy="0" r="{r!r}" '
                    f'fill="none" stroke="{color}" '
                    f'stroke-width="{stroke_w!r}" data-word="{word}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
