"""The vectorized decimal writer against Python's own format, value by value."""

import numpy as np
import pytest

from diskdyn import _decimal


def _text(x, fmt):
    return _decimal.join([_decimal.cells(x, fmt), b"\n"])


def _assert_formats_like_python(x, fmt):
    got = _text(x, fmt)
    want = "".join(format(v, fmt) + "\n" for v in x.tolist())
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(x.tolist(), got.split("\n"), want.split("\n"))
               if g != w]
        raise AssertionError(f"{fmt}: {len(bad)} of {x.size} differ, first {bad[:3]}")


def _near(centres, k):
    """The k doubles on either side of each centre, and the centres."""
    c = np.asarray(centres, np.float64)
    out = [c]
    lo = hi = c
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.concatenate(out)


def _values_17g(rng):
    powers = 10.0 ** np.arange(-300, 300)
    subnormal = np.array([5e-324, 1e-320, 2.2250738585072009e-308, 1e-310])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.7976931348623157e308, 1.0, 0.1])
    ints = np.concatenate([np.arange(-3_000.0, 3_000.0) + c for c in (2.0**53, 1e16, 1e17)])
    m = rng.integers(1, 64, 300_000)
    dyadic = rng.integers(-(2**53), 2**53, 300_000) / 2.0**m  # exact ties among them
    with np.errstate(over="ignore"):  # the normals scaled past 1e308 are infinities
        scaled = rng.normal(size=250_000) * np.exp(rng.uniform(-736.0, 709.0, 250_000))
    values = [
        rng.integers(0, 2**64, 250_000, dtype=np.uint64).view(np.float64),
        scaled,  # 1e-320..1e308
        dyadic,
        _near(powers, 1),
        subnormal, -subnormal, special,
        ints, -ints,
    ]
    return np.concatenate(values)


def _values_6f(rng):
    m = rng.integers(0, 40, 200_000)
    dyadic = rng.integers(-(2**40), 2**40, 200_000) / 2.0**m  # k / 128 with k odd is a tie
    # k + 0.9999995 and its neighbours: the sixth decimal rounds up into the units
    carries = _near(np.arange(-500, 500) + 0.9999995, 2)
    special = np.array([0.0, -0.0, -1e-9, 1e-7, 99999999999.999985, -5e-324])
    values = [
        250.0 + 220.0 * rng.uniform(-1.0, 1.0, 100_000),  # the SVG coordinates
        rng.normal(size=100_000) * np.exp(rng.uniform(-30.0, 25.0, 100_000)),
        dyadic, carries, special,
    ]
    return np.concatenate(values)


def test_cells_match_format_on_a_million_values():
    rng = np.random.default_rng(20_131)
    x17, x6 = _values_17g(rng), _values_6f(rng)
    assert x17.size + x6.size >= 1_000_000
    _assert_formats_like_python(x17, ".17g")
    _assert_formats_like_python(x6, ".6f")


def test_fixed_cells_of_values_past_the_kernel_fall_back_to_format():
    # |x| >= 1e11 and non-finite values are written by format, however wide
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.integers(0, 2**64, 2_000, dtype=np.uint64).view(np.float64),
                        [1e11, -1e11, 1e300, np.inf, -np.inf, np.nan, 0.5]])
    _assert_formats_like_python(x, ".6f")


def test_ties_round_half_to_even_in_both_modes():
    # 18 significant digits ending in 5, exactly: format rounds these to even
    x = np.array([12345678901234.5625, 12345678901234.1875, 12345678901234.6875, 0.125,
                  0.375, 2.5e-7, 1.5e-6, 9007199254740993.0, 1234567.0000005, 0.0078125,
                  0.0234375, 4503599627370497.5])
    _assert_formats_like_python(np.concatenate([x, -x]), ".17g")
    _assert_formats_like_python(np.concatenate([x, -x, x * 1e-6]), ".6f")


@pytest.mark.parametrize("off", [1, -1])
def test_a_wrong_exponent_estimate_is_corrected_not_handed_to_format(monkeypatch, off):
    rng = np.random.default_rng(7)
    x = np.concatenate([_near(10.0 ** np.arange(-200, 200), 2),
                        rng.normal(size=20_000) * np.exp(rng.uniform(-400.0, 400.0, 20_000))])
    handed = []
    fallback = _decimal._fallback

    def counted(x, fmt, rows, out):
        handed.append(len(rows))
        return fallback(x, fmt, rows, out)

    monkeypatch.setattr(_decimal, "_fallback", counted)
    _assert_formats_like_python(x, ".17g")
    estimate = _decimal._estimate
    monkeypatch.setattr(_decimal, "_estimate", lambda a: estimate(a) + off)
    _assert_formats_like_python(x, ".17g")
    assert handed[0] == handed[1] > 0  # the values past the power table, and no others


def test_integer_cells_and_short_columns():
    n = np.arange(0, 120_000)
    assert _text(n, "d") == "".join(f"{i}\n" for i in range(120_000))
    # a short column leaves its last lines without cells
    short, full = _decimal.cells(np.array([1.5, -2.0]), ".17g"), _decimal.cells(n[:4], "d")
    assert _decimal.join([short, b",", full, b"\n"]) == "1.5,0\n-2,1\n,2\n,3\n"
    empty = _decimal.cells(np.array([]), ".17g")
    assert _decimal.join([empty, b";", full, b"\n"]) == ";0\n;1\n;2\n;3\n"


def test_join_lays_constants_between_the_cells():
    x = np.array([0.25, -1e-5, 1e22])
    text = _decimal.join([b"<", _decimal.cells(x, ".17g"), b"|", _decimal.cells(x, ".6f"), b">\n"])
    assert text == "<0.25|0.250000>\n<-1.0000000000000001e-05|-0.000010>\n" \
                   "<1e+22|10000000000000000000000.000000>\n"


def _bits(*patterns):
    return np.array(patterns, np.uint64).view(np.float64)


def _run_heavy_columns():
    """Columns of runs of equal values, as the CSV and SVG writers meet them."""
    rng = np.random.default_rng(40)
    edge = _decimal.CHUNK
    nans = _bits(0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000000)  # two payloads, -nan
    across = np.repeat(rng.normal(size=7) * 1e3, [edge - 3, 5, 1, edge, 2, 3, edge + 1])
    return {
        "constant": np.full(100_001, 250.0 + 220.0 / 3.0),
        "across a chunk edge": across,
        "zeros of both signs": np.repeat([0.0, -0.0, 0.0, -0.0, 1.5, -0.0], [3, 1, 1, 4, 2, 1]),
        "nan payloads": np.repeat(np.concatenate([nans, nans[::-1], [1.0]]), [2, 1, 3, 1, 4, 1, 2]),
        "infinities": np.repeat([np.inf, -np.inf, np.inf, 2.0, -np.inf], [4, 4, 1, 1, 3]),
        "a run at the end": np.concatenate([rng.normal(size=50) * 1e-7, np.full(30, -1e11 / 3.0)]),
        "one value": np.array([-0.1]),
        "equal neighbours now and then": np.repeat(rng.normal(size=3000), rng.integers(1, 3, 3000)),
    }


@pytest.mark.parametrize("fmt", [".17g", ".6f"])
@pytest.mark.parametrize("name", sorted(_run_heavy_columns()))
def test_runs_of_equal_values_format_like_python(name, fmt):
    x = _run_heavy_columns()[name]
    _assert_formats_like_python(x, fmt)
    # as the CSV writer cuts a column, chunk by chunk
    chunks = [_text(x[i:i + _decimal.CHUNK], fmt) for i in range(0, x.size, _decimal.CHUNK)]
    assert "".join(chunks) == _text(x, fmt)


def test_a_run_is_formatted_once(monkeypatch):
    formatted = []
    g17 = _decimal._g17
    monkeypatch.setattr(_decimal, "_g17", lambda x: formatted.append(x.size) or g17(x))
    x = np.repeat([0.0, -0.0, 0.0, 3.5, np.nan], [100_000, 1, 1, 7, 2])
    assert _text(x, ".17g") == "0\n" * 100_000 + "-0\n0\n" + "3.5\n" * 7 + "nan\n" * 2
    distinct = np.arange(10.0)
    _text(distinct, ".17g")
    assert formatted == [5, 10]  # one value a run; distinct values as they come
