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
