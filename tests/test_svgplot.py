import math
import re

import pytest

from hybridavg.svgplot import Curve, Panel, render_panels


@pytest.mark.parametrize("t, y", [([1.0], [2.0]), ([0.0, 1.0, 2.0], [3.0, 3.0, 3.0]),
                                  ([5.0, 5.0], [0.0, 1.0])],
                         ids=["one-point", "equal-y", "equal-t"])
def test_constant_and_empty_curves_give_finite_coordinates(t, y):
    # a zero span in t or y is widened to 1 and an empty curve draws nothing
    svg = render_panels([Panel("title", "t", "y", [Curve(t, y), Curve([], [])])])
    (points,) = re.findall(r'<polyline points="([^"]*)"', svg)
    assert len(points.split()) == len(t)
    numbers = re.findall(r' (?:x|y|width|height)="([^"]*)"', svg) + re.split(r"[ ,]", points)
    assert all(math.isfinite(float(v)) for v in numbers)
    assert not re.search(r"nan|inf", svg, re.IGNORECASE)
