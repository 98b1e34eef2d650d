"""Quadrant and area-of-interest classification.

The screen splits into four quadrants at its center: the lower half
(Q3/Q4) carries the game stimuli, the upper half (Q1/Q2) the menu.
Gaze additionally classifies against a rectangle centered on the
currently shown object: the left or right area of interest.

classify_session labels a whole session at once and returns int8 code
arrays; QUADRANT_ORDER and AOI_ORDER turn codes back into labels.
"""
from gazescore import (
    GazeSample,
    LevelSession,
    ObjectPlacement,
    ScreenGeometry,
    aoi_bounds,
    classify_session,
)
from gazescore.spatial import AOI_ORDER, QUADRANT_ORDER

geometry = ScreenGeometry()  # y grows downward on screen


def session(points, placements=()):
    """One sample per point, 16 ms apart, with the given placements."""
    samples = tuple(GazeSample(16 * i, x, y) for i, (x, y) in enumerate(points))
    return LevelSession("demo", 1, samples, (), tuple(placements), geometry)


print("1. Quadrants (screen coordinates, stimuli in the visually lower half):")
corners = [
    (100, 100, "upper left"),
    (1500, 100, "upper right"),
    (100, 900, "lower left"),
    (1500, 900, "lower right"),
    (960, 540, "dead center"),
]
quadrants, _ = classify_session(session([(x, y) for x, y, _ in corners]))
for (x, y, where), code in zip(corners, quadrants):
    q = QUADRANT_ORDER[code]
    role = "stimulus" if q.is_stimulus else "menu"
    print(f"   ({x:>4}, {y:>4}) {where:12} -> {q.value} ({role})")

print("\n2. An AoI is a closed rectangle centered on the object:")
placement = ObjectPlacement(t_ms=0, obj_x_px=480, obj_y_px=810, aoi_w_px=200, aoi_h_px=150)
rect = aoi_bounds(placement)
print(f"   object at (480, 810), 200x150 -> x in [{rect.x_min}, {rect.x_max}], "
      f"y in [{rect.y_min}, {rect.y_max}]")

print("\n3. The label takes the side from the object position, not the gaze:")
left_obj = placement
right_obj = ObjectPlacement(t_ms=0, obj_x_px=1440, obj_y_px=810, aoi_w_px=200, aoi_h_px=150)
for gx, gy, obj, tag in [
    (480, 812, left_obj, "inside the left object's box"),
    (480, 1000, left_obj, "below the box"),
    (1440, 812, right_obj, "inside the right object's box"),
    (480, 812, None, "no object on screen"),
]:
    _, aois = classify_session(session([(gx, gy)], [obj] if obj else []))
    print(f"   gaze ({gx:>4}, {gy:>4}), {tag:32} -> {AOI_ORDER[aois[0]].value}")
