from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gazescore.ingest import GazeSample, LevelSession, ObjectPlacement
from gazescore.spatial import (
    AOI_ORDER,
    QUADRANT_ORDER,
    AoiLabel,
    Quadrant,
    ScreenGeometry,
    classify_session,
)
from oracles import active_placement

# The worked quadrant examples are stated in the y-up frame.
GEO_UP = ScreenGeometry(y_up=True)
GEO_SCREEN = ScreenGeometry()


def _one_sample(x, y, placement, geometry):
    session = LevelSession(
        "s", 1, (GazeSample(0, x, y),), (), (placement,) if placement else (), geometry
    )
    quadrants, aois = classify_session(session)
    return QUADRANT_ORDER[quadrants[0]], AOI_ORDER[aois[0]]


def quadrant_of(x, y, geometry):
    """The session kernel's quadrant for a single point."""
    return _one_sample(x, y, None, geometry)[0]


def classify_aoi(x, y, placement, geometry):
    """The session kernel's AoI label for a single point; the placement
    is active at the sample's time."""
    return _one_sample(x, y, placement, geometry)[1]


class TestQuadrantOf:
    @pytest.mark.parametrize(
        "x,y,expected",
        [
            (100, 900, Quadrant.Q1),
            (960, 540, Quadrant.Q4),
            (0, 0, Quadrant.Q3),
            (959.9, 540.1, Quadrant.Q1),
            (960, 540.1, Quadrant.Q2),
            (1920, 1080, Quadrant.Q2),
            (0, 540, Quadrant.Q3),
        ],
    )
    def test_y_up_examples(self, x, y, expected):
        assert quadrant_of(x, y, GEO_UP) is expected

    def test_screen_frame_puts_stimuli_at_bottom(self):
        # In screen coordinates the visually lower half is the stimulus area.
        assert quadrant_of(100, 900, GEO_SCREEN) is Quadrant.Q3
        assert quadrant_of(1500, 900, GEO_SCREEN) is Quadrant.Q4
        assert quadrant_of(100, 100, GEO_SCREEN) is Quadrant.Q1
        assert quadrant_of(1500, 100, GEO_SCREEN) is Quadrant.Q2

    @given(
        x=st.floats(0, 1920, allow_nan=False),
        y=st.floats(0, 1080, allow_nan=False),
    )
    def test_totality(self, x, y):
        q_up = quadrant_of(x, y, GEO_UP)
        q_screen = quadrant_of(x, y, GEO_SCREEN)
        assert q_up in Quadrant and q_screen in Quadrant

    @given(
        x=st.floats(0, 1920, allow_nan=False),
        y=st.floats(0, 1080, allow_nan=False),
    )
    def test_y_up_flip_relabels(self, x, y):
        if y == 1080 / 2:
            return  # boundary points map to themselves
        flipped = {
            Quadrant.Q1: Quadrant.Q3,
            Quadrant.Q2: Quadrant.Q4,
            Quadrant.Q3: Quadrant.Q1,
            Quadrant.Q4: Quadrant.Q2,
        }
        assert quadrant_of(x, y, GEO_SCREEN) is flipped[quadrant_of(x, y, GEO_UP)]

    def test_partition_of_grid(self):
        # The four quadrant predicates partition the screen rectangle.
        xs = np.linspace(0, 1920, 33)
        ys = np.linspace(0, 1080, 33)
        for x in xs:
            for y in ys:
                labels = [quadrant_of(float(x), float(y), GEO_UP)]
                assert len(set(labels)) == 1


@pytest.mark.parametrize(
    "width,height", [(0, 1080), (-5, 1080), (math.nan, 1080), (math.inf, 1080), (1920, math.nan)]
)
def test_screen_size_must_be_positive_and_finite(width, height):
    with pytest.raises(ValueError, match="positive and finite"):
        ScreenGeometry(width, height)


class TestAoiBounds:
    """The AoI rectangle, seen through the session kernel."""

    PLACED = ObjectPlacement(0, 400, 300, 200, 150)

    def test_basic_rectangle(self):
        # Centred on (400, 300) with half extents 100 and 75.
        for x in (300, 500):
            for y in (225, 375):
                assert classify_aoi(x, y, self.PLACED, GEO_SCREEN) is AoiLabel.LEFT
        beyond = [(math.nextafter(300, -math.inf), 300), (math.nextafter(500, math.inf), 300),
                  (400, math.nextafter(225, -math.inf)), (400, math.nextafter(375, math.inf))]
        for x, y in beyond:
            assert classify_aoi(x, y, self.PLACED, GEO_SCREEN) is AoiLabel.OUTSIDE

    def test_zero_width_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ObjectPlacement(0, 400, 300, 0, 150)

    def test_no_clipping_at_screen_edge(self):
        placed = ObjectPlacement(0, 0, 0, 100, 100)
        assert classify_aoi(-50, -50, placed, GEO_SCREEN) is AoiLabel.LEFT
        assert classify_aoi(50, 50, placed, GEO_SCREEN) is AoiLabel.LEFT
        assert classify_aoi(-50.001, 0, placed, GEO_SCREEN) is AoiLabel.OUTSIDE

    def test_closed_edges(self):
        assert classify_aoi(300, 225, self.PLACED, GEO_SCREEN) is AoiLabel.LEFT
        assert classify_aoi(500, 375, self.PLACED, GEO_SCREEN) is AoiLabel.LEFT
        assert classify_aoi(299.999, 225, self.PLACED, GEO_SCREEN) is AoiLabel.OUTSIDE


class TestClassifyAoi:
    LEFT_OBJ = ObjectPlacement(0, 400, 300, 200, 150)
    RIGHT_OBJ = ObjectPlacement(0, 1450, 300, 200, 150)

    def test_left_hit(self):
        assert classify_aoi(450, 330, self.LEFT_OBJ, GEO_SCREEN) is AoiLabel.LEFT

    def test_outside_by_y(self):
        assert classify_aoi(450, 400, self.LEFT_OBJ, GEO_SCREEN) is AoiLabel.OUTSIDE

    def test_right_hit(self):
        assert classify_aoi(1500, 330, self.RIGHT_OBJ, GEO_SCREEN) is AoiLabel.RIGHT

    def test_no_active_placement(self):
        assert classify_aoi(450, 330, None, GEO_SCREEN) is AoiLabel.OUTSIDE

    @given(
        gx=st.floats(0, 1920, allow_nan=False),
        gy=st.floats(0, 1080, allow_nan=False),
        ox=st.floats(0, 1920, allow_nan=False),
        oy=st.floats(0, 1080, allow_nan=False),
        w=st.floats(1, 500),
        h=st.floats(1, 500),
    )
    def test_side_consistency(self, gx, gy, ox, oy, w, h):
        placement = ObjectPlacement(0, ox, oy, w, h)
        label = classify_aoi(gx, gy, placement, GEO_SCREEN)
        if label is AoiLabel.LEFT:
            assert ox < 960
        elif label is AoiLabel.RIGHT:
            assert ox >= 960

    def test_membership_against_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            gx, gy = rng.uniform(0, 1920), rng.uniform(0, 1080)
            ox, oy = rng.uniform(0, 1920), rng.uniform(0, 1080)
            w, h = rng.uniform(1, 400), rng.uniform(1, 400)
            placement = ObjectPlacement(0, ox, oy, w, h)
            inside = (abs(gx - ox) <= w / 2) and (abs(gy - oy) <= h / 2)
            label = classify_aoi(gx, gy, placement, GEO_SCREEN)
            if inside:
                assert label is (AoiLabel.LEFT if ox < 960 else AoiLabel.RIGHT)
            else:
                assert label is AoiLabel.OUTSIDE


class TestActivePlacement:
    PLACEMENTS = (
        ObjectPlacement(100, 400, 300, 200, 150),
        ObjectPlacement(200, 1450, 300, 200, 150),
    )

    def test_before_first(self):
        assert active_placement(self.PLACEMENTS, 50) is None

    def test_exact_time_is_active(self):
        assert active_placement(self.PLACEMENTS, 100) == self.PLACEMENTS[0]

    def test_step_semantics(self):
        assert active_placement(self.PLACEMENTS, 199) == self.PLACEMENTS[0]
        assert active_placement(self.PLACEMENTS, 200) == self.PLACEMENTS[1]
        assert active_placement(self.PLACEMENTS, 10_000) == self.PLACEMENTS[1]


class TestClassifySession:
    def test_placement_switching(self):
        session = LevelSession(
            student_id="s",
            level=1,
            samples=(
                GazeSample(0, 450, 810),     # before any placement -> outside
                GazeSample(100, 480, 810),   # left object active -> left
                GazeSample(200, 1440, 810),  # right object active -> right
                GazeSample(300, 480, 810),   # right active, left rect -> outside
            ),
            events=(),
            placements=(
                ObjectPlacement(50, 480, 810, 200, 150),
                ObjectPlacement(150, 1440, 810, 200, 150),
            ),
        )
        quadrants, aois = classify_session(session)
        assert [AOI_ORDER[a] for a in aois] == [
            AoiLabel.OUTSIDE, AoiLabel.LEFT, AoiLabel.RIGHT, AoiLabel.OUTSIDE
        ]
        assert [QUADRANT_ORDER[q] for q in quadrants] == [
            Quadrant.Q3, Quadrant.Q3, Quadrant.Q4, Quadrant.Q3
        ]
        assert quadrants.dtype == aois.dtype == np.int8

    def test_empty_session(self):
        session = LevelSession("s", 1, (), (), ())
        quadrants, aois = classify_session(session)
        assert len(quadrants) == len(aois) == 0
