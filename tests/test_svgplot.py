import re
from dataclasses import fields
from xml.dom import minidom

import numpy as np
import pytest
from oracles import render_traces_reference

from megden.svgplot import _NOT_XML_CHAR, PlotSpec, render_traces


def test_one_polyline_per_row():
    m = np.random.default_rng(0).normal(size=(9, 30))
    svg = render_traces(m, PlotSpec(title="traces"))
    assert svg.count("<polyline") == 9
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_default_axis_labels_present():
    svg = render_traces(np.zeros((1, 4)), PlotSpec())
    assert "Time (ms)" in svg
    assert "Magnetic field (fT)" in svg


def test_title_is_escaped():
    svg = render_traces(np.zeros((1, 4)), PlotSpec(title="a<b & c"))
    assert "a&lt;b &amp; c" in svg
    assert "a<b" not in svg


def test_spec_has_only_title_and_size():
    assert [f.name for f in fields(PlotSpec)] == ["title", "width", "height"]


@pytest.mark.parametrize("title", ["é", "Δt → 0 ≤ 1 \U0001F600", "tab\there", "a\x7fb"])
def test_any_xml_title_round_trips(title):
    svg = render_traces(np.zeros((1, 4)), PlotSpec(title=title))
    assert svg.isascii()
    text = minidom.parseString(svg).getElementsByTagName("text")[0]
    assert text.firstChild.data == title


@pytest.mark.parametrize("bad", ["\x00", "\x01", "\x1f", "\ud800", "\udcff", "\ufffe", "\uffff"])
def test_code_points_outside_xml_are_named(bad):
    with pytest.raises(ValueError, match=f"U\\+{ord(bad):04X}, which XML 1.0 does not allow"):
        render_traces(np.zeros((1, 4)), PlotSpec(title=f"a{bad}b"))


def test_forbidden_set_is_the_complement_of_the_xml_char_production():
    # the XML 1.0 Char production, negated: the oracle for the named forbidden set
    oracle = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
    every = "".join(map(chr, range(0x110000)))
    assert _NOT_XML_CHAR.findall(every) == oracle.findall(every)


def test_flat_data_still_renders():
    svg = render_traces(np.full((3, 5), 2.0), PlotSpec())
    assert svg.count("<polyline") == 3
    assert "nan" not in svg.lower()


@pytest.mark.parametrize(
    "matrix",
    [
        np.full((2, 4), -1e17),  # lo - 1.0 == lo
        np.full((2, 4), 1e200),
        np.full((2, 4), -np.finfo(np.float64).max),
        np.array([[-1e308, 1e308, 0.0]]),  # hi - lo overflows
        np.array([[np.finfo(np.float64).max, 1.0], [2.0, -np.finfo(np.float64).max]]),
    ],
)
def test_huge_values_give_finite_coordinates(matrix):
    with np.errstate(all="raise"):
        svg = render_traces(matrix, PlotSpec())
    assert "nan" not in svg and "inf" not in svg
    lines = [line for line in svg.splitlines() if line.startswith("<polyline")]
    assert len(lines) == matrix.shape[0]
    for line in lines:
        points = line.split('points="')[1].split('"')[0].split()
        ys = [float(p.split(",")[1]) for p in points]
        assert all(48.0 <= y <= 542.0 for y in ys)  # inside the plot's inner box


def test_single_column_rejected():
    # a polyline needs at least two points
    with pytest.raises(ValueError):
        render_traces(np.zeros((2, 1)), PlotSpec())
    with pytest.raises(ValueError):
        render_traces(np.zeros(8), PlotSpec())


def test_spec_validation():
    with pytest.raises(ValueError):
        PlotSpec(width=50)
    with pytest.raises(ValueError):
        PlotSpec(height=10)
    # a side past the float range would crash the layout with an OverflowError
    for side in (100_001, 10**400):
        with pytest.raises(ValueError, match=r"^width must be in 100\.\.100000, got "):
            PlotSpec(width=side)
        with pytest.raises(ValueError, match=r"^height must be in 100\.\.100000, got "):
            PlotSpec(height=side)
    PlotSpec(width=100_000, height=100)
    # a title that is not a str would fail in render_traces with a TypeError
    with pytest.raises(ValueError, match="^title must be a str, got 5$"):
        PlotSpec(title=5)


def test_dimensions_in_header():
    svg = render_traces(np.zeros((2, 3)), PlotSpec(width=640, height=480))
    assert 'width="640"' in svg
    assert 'height="480"' in svg


@pytest.mark.parametrize(
    "matrix, spec",
    [
        (np.random.default_rng(42).normal(scale=80.0, size=(274, 241)), PlotSpec()),
        (np.full((3, 5), 2.0), PlotSpec(title="a<b & c>d")),
    ],
)
def test_points_match_the_per_point_reference(matrix, spec):
    got = render_traces(matrix, spec).split("\n")
    want = render_traces_reference(matrix, spec).split("\n")
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):  # line by line keeps a failure's diff small
        assert got_line == want_line


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    m = np.zeros((3, 4))
    m[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite value at row 1, column 2"):
        render_traces(m, PlotSpec())
