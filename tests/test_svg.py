import io

import pytest

from caproof.svg import Canvas, LogScale, escape, fmt, si


def test_fmt_six_significant_digits():
    assert fmt(393216.0) == "393216"
    assert fmt(1.23456789) == "1.23457"
    assert fmt(0.000123456789) == "0.000123457"


def test_si_suffixes():
    assert si(0) == "0"
    assert si(1500) == "1.5k"
    assert si(2.5e9) == "2.5G"
    assert si(8e12) == "8T"
    assert si(2.25e15) == "2.25P"
    assert si(12) == "12"


def test_log_scale_maps_decades_evenly():
    scale = LogScale(1, 100, 0, 200)
    assert scale(1) == 0
    assert scale(10) == pytest.approx(100)
    assert scale(100) == pytest.approx(200)
    assert scale.ticks() == [1, 10, 100]


def test_log_scale_rejects_bad_domain():
    with pytest.raises(ValueError):
        LogScale(0, 10, 0, 1)
    with pytest.raises(ValueError):
        LogScale(10, 10, 0, 1)


def test_escape():
    assert escape("a<b>&c") == "a&lt;b&gt;&amp;c"


def test_canvas_render_deterministic():
    def render():
        canvas = Canvas(100, 50)
        canvas.line(0, 0, 10, 10)
        canvas.rect(1, 2, 3, 4, fill="#333", opacity=0.5)
        canvas.circle(5, 5, 2, fill="#abc", stroke="#000")
        canvas.polyline([(0, 0), (1.5, 2.25)], stroke="#f00")
        canvas.text(3, 4, "x<y", rotate=-90)
        return canvas.to_svg()

    first, second = render(), render()
    assert first == second
    assert first.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert "&lt;" in first and first.rstrip().endswith("</svg>")


def _drawn(draw):
    """The one line a primitive adds between the <svg> head and its end."""
    canvas = Canvas(100, 50)
    draw(canvas)
    lines = canvas.to_svg().split("\n")
    assert lines[-2:] == ["</svg>", ""]
    return lines[2:-2]


@pytest.mark.parametrize("draw, expected", [
    (lambda c: c.rect(1, 2.5, 3, 4, fill="#333"),
     '<rect x="1" y="2.5" width="3" height="4" fill="#333"/>'),
    (lambda c: c.rect(1.23456789, 2, 3, 4, fill="none", stroke="#999", opacity=0.5),
     '<rect x="1.23457" y="2" width="3" height="4" fill="none" stroke="#999" '
     'fill-opacity="0.5"/>'),
    (lambda c: c.rect(0, 0, 1, 1, fill="#fff", stroke="", opacity=0),
     '<rect x="0" y="0" width="1" height="1" fill="#fff" fill-opacity="0"/>'),
    (lambda c: c.line(0, 0, 10, 10),
     '<line x1="0" y1="0" x2="10" y2="10" stroke="#444" stroke-width="1"/>'),
    (lambda c: c.line(0.5, 1, 2, 3e7, stroke="#f00", width=2.5, dash="4 2"),
     '<line x1="0.5" y1="1" x2="2" y2="3e+07" stroke="#f00" stroke-width="2.5" '
     'stroke-dasharray="4 2"/>'),
    (lambda c: c.line(0, 0, 1, 1, dash=""),
     '<line x1="0" y1="0" x2="1" y2="1" stroke="#444" stroke-width="1"/>'),
    (lambda c: c.polyline([(0, 0), (1.5, 2.25)], stroke="#f00"),
     '<polyline points="0,0 1.5,2.25" fill="none" stroke="#f00" stroke-width="1.5"/>'),
    (lambda c: c.polyline([(1, 2)], stroke="#222", width=2),
     '<polyline points="1,2" fill="none" stroke="#222" stroke-width="2"/>'),
    (lambda c: c.circle(5, 5, 2, fill="#abc"), '<circle cx="5" cy="5" r="2" fill="#abc"/>'),
    (lambda c: c.circle(5, 0.125, 4, fill="#abc", stroke="#000"),
     '<circle cx="5" cy="0.125" r="4" fill="#abc" stroke="#000"/>'),
    (lambda c: c.circle(1, 1, 1, fill="#abc", stroke=""),
     '<circle cx="1" cy="1" r="1" fill="#abc"/>'),
    (lambda c: c.text(3, 4, "label"),
     '<text x="3" y="4" font-size="11" font-family="sans-serif" text-anchor="start" '
     'fill="#222">label</text>'),
    (lambda c: c.text(3, 4.5, "x<y & z>", size=9, anchor="end", color="#f00", rotate=-90),
     '<text x="3" y="4.5" font-size="9" font-family="sans-serif" text-anchor="end" '
     'fill="#f00" transform="rotate(-90 3 4.5)">x&lt;y &amp; z&gt;</text>'),
    (lambda c: c.text(0, 0, "", rotate=0),
     '<text x="0" y="0" font-size="11" font-family="sans-serif" text-anchor="start" '
     'fill="#222" transform="rotate(0 0 0)"></text>'),
])
def test_canvas_primitive_bytes(draw, expected):
    assert _drawn(draw) == [expected]


def test_canvas_head_and_part_order():
    svg = Canvas(100, 50)
    svg.circle(1, 2, 3, fill="#000")
    svg.text(1, 2, "a")
    assert svg.to_svg() == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="100" height="50" '
        'viewBox="0 0 100 50">\n<rect width="100" height="50" fill="#ffffff"/>\n'
        '<circle cx="1" cy="2" r="3" fill="#000"/>\n'
        '<text x="1" y="2" font-size="11" font-family="sans-serif" text-anchor="start" '
        'fill="#222">a</text>\n</svg>\n'
    )


def draw_every_primitive(canvas):
    canvas.rect(1, 2, 3, 4, fill="#333", stroke="#999", opacity=0.5)
    canvas.line(0, 0, 10, 10, dash="4 2")
    canvas.polyline([(0, 0), (1.5, 2.25)], stroke="#f00")
    canvas.circle(5, 5, 2, fill="#abc", stroke="#000")
    canvas.text(3, 4, "x<y", rotate=-90)


def test_canvas_drawn_into_a_file_writes_as_it_draws():
    out = io.StringIO()
    canvas = Canvas(100, 50, out)
    assert out.getvalue() == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="100" height="50" '
        'viewBox="0 0 100 50">\n<rect width="100" height="50" fill="#ffffff"/>\n')
    canvas.circle(1, 2, 3, fill="#000")
    assert out.getvalue().endswith('<circle cx="1" cy="2" r="3" fill="#000"/>\n')
    draw_every_primitive(canvas)
    canvas.close()
    reference = Canvas(100, 50)
    reference.circle(1, 2, 3, fill="#000")
    draw_every_primitive(reference)
    assert out.getvalue() == reference.to_svg()
