import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from clonebound.bounds import (
    RE_BOUND_ARGMAX,
    BoundCurve,
    _overlap_angles,
    ae_lower_bound,
    hb_bound,
    re_lower_bound,
    sample_curve,
    table_csv,
)


class TestReLowerBound:
    def test_endpoints(self):
        assert re_lower_bound(0.0) == 0.0
        assert re_lower_bound(1.0) == pytest.approx(oracles.F_AT_ONE, abs=1e-15)

    def test_value_at_half(self):
        assert re_lower_bound(0.5) == pytest.approx(oracles.F_AT_HALF, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            re_lower_bound(-0.01)
        with pytest.raises(ValueError):
            re_lower_bound(1.01)

    def test_maximum_location(self):
        # the peak solves u^2 + u - 1 = 0 in u = z^2
        assert RE_BOUND_ARGMAX == pytest.approx(oracles.RE_ARGMAX, abs=1e-15)
        h = 1e-6
        peak = re_lower_bound(RE_BOUND_ARGMAX)
        assert peak > re_lower_bound(RE_BOUND_ARGMAX - h)
        assert peak > re_lower_bound(RE_BOUND_ARGMAX + h)


class TestAeLowerBound:
    def test_quoted_maximum(self):
        z_star = 1 / np.sqrt(3)
        assert ae_lower_bound(z_star) == pytest.approx(np.sqrt(2 / 27), abs=1e-15)
        assert round(float(ae_lower_bound(z_star)), 3) == 0.272

    def test_quoted_value_at_half(self):
        expected = np.sqrt(3) * (np.sqrt(5) - 1) / 8
        assert ae_lower_bound(0.5) == pytest.approx(expected, abs=1e-15)

    def test_quoted_ratio_at_four_fifths(self):
        ratio = float(ae_lower_bound(0.8) / hb_bound(0.8))
        assert ratio == pytest.approx(1.5, abs=0.02)

    def test_matches_trig_oracle_on_grid(self):
        for z in np.linspace(0, 1, 41):
            assert float(ae_lower_bound(z)) == pytest.approx(
                oracles.ae_bound(z), abs=1e-14
            )


class TestHbBound:
    def test_quoted_maximum(self):
        assert hb_bound(0.5) == pytest.approx(np.sqrt(5) - 2, abs=1e-15)

    def test_endpoints(self):
        assert hb_bound(0.0) == 0.0
        assert hb_bound(1.0) == 0.0

    def test_symmetry_about_half(self):
        z = np.linspace(0, 1, 101)
        assert np.allclose(hb_bound(z), hb_bound(1 - z), atol=1e-15)


@pytest.mark.parametrize("floor", [ae_lower_bound, re_lower_bound, hb_bound])
@pytest.mark.parametrize("z", [np.nan, [0.5, np.nan]], ids=["scalar", "array"])
def test_floors_reject_nan(floor, z):
    with pytest.raises(ValueError, match=r"overlap z must be in \[0\.0, 1\.0\]"):
        floor(z)


class TestRelations:
    def test_ae_equals_re_times_product_sine(self):
        z = np.linspace(0, 1, 257)
        lhs = ae_lower_bound(z)
        rhs = re_lower_bound(z) * np.sqrt(1 - z ** 4)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dominance_over_hb_on_dense_grid(self):
        z = np.linspace(0, 1, 10_000)
        assert np.all(ae_lower_bound(z) >= hb_bound(z) - 1e-12)

    def test_small_z_asymptotics(self):
        assert float(ae_lower_bound(1e-4)) / 1e-4 == pytest.approx(1.0, abs=1e-3)
        assert float(hb_bound(1e-4)) / 1e-4 == pytest.approx(1.0, abs=1e-3)

    def test_near_one_asymptotics(self):
        xi = 1e-6
        assert float(ae_lower_bound(1 - xi)) / np.sqrt(xi) == pytest.approx(
            2 - np.sqrt(2), abs=1e-2
        )
        assert float(hb_bound(1 - xi)) / xi == pytest.approx(1.0, abs=1e-2)


class TestFullRelativePrecision:
    """The floors and the angles keep full relative precision next to both
    ends of [0, 1], where their textbook forms cancel: 1 - z^4 and arccos(z^2)
    as z -> 1, 2(sqrt(1 + z(1 - z)) - 1) as z -> 0 and z -> 1."""

    ZS = oracles.NEAR_ONE + oracles.NEAR_ZERO + oracles.GRID

    def test_floors(self):
        for f, ref in ((ae_lower_bound, oracles.ae_bound),
                       (re_lower_bound, oracles.f_bound), (hb_bound, oracles.hb_bound)):
            for z in self.ZS:
                assert oracles.rel_err(float(f(z)), ref(z)) <= 1e-15, (f.__name__, z)

    def test_overlap_angles(self):
        for z in self.ZS:
            for got, ref in zip(_overlap_angles(z), oracles.overlap_angles(z)):
                assert oracles.rel_err(got, ref) <= 1e-15, z


class TestSampleCurve:
    def test_basic_grid(self):
        c = sample_curve("f", re_lower_bound, 0.0, 1.0, 101)
        assert c.grid[0] == 0.0 and c.grid[-1] == 1.0
        assert c.values[0] == 0.0
        assert len(c.grid) == 101

    def test_ae_maximum_lands_near_the_analytic_argmax(self):
        c = sample_curve("ae", ae_lower_bound, 0.0, 1.0, 201)
        assert abs(c.argmax_z() - 1 / np.sqrt(3)) <= 0.005

    def test_re_curve_shape(self):
        c = sample_curve("f", re_lower_bound, 0.0, 1.0, 201)
        inc = np.diff(c.values[c.grid <= 0.78])
        dec = np.diff(c.values[c.grid >= 0.96])
        assert np.all(inc > 0)
        assert np.all(dec < 0)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            sample_curve("f", re_lower_bound, 0.0, 0.0, 10)
        with pytest.raises(ValueError):
            sample_curve("f", re_lower_bound, 0.2, 0.1, 10)
        with pytest.raises(ValueError):
            sample_curve("f", re_lower_bound, 0.0, 1.0, 1)


class TestBoundCurve:
    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            BoundCurve("x", [0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            BoundCurve("x", [0.0, 1.0], [1.0, np.nan])
        with pytest.raises(ValueError, match="1-D"):
            BoundCurve("x", [0.0, 1.0], [1.0])

    def test_csv_round_trip_is_exact(self):
        c = sample_curve("f", re_lower_bound, 0.0, 1.0, 11)
        text = table_csv(("z", "value"), (c.grid, c.values))
        lines = text.strip().split("\n")
        assert lines[0] == "z,value"
        parsed = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(parsed[:, 0], c.grid)
        assert np.array_equal(parsed[:, 1], c.values)

    def test_json_dict(self):
        c = sample_curve("f", re_lower_bound, 0.0, 0.5, 3)
        d = c.to_json_dict()
        assert d["name"] == "f" and len(d["z"]) == 3 == len(d["values"])
        for key, array in (("z", c.grid), ("values", c.values)):
            assert all(type(v) is float for v in d[key])
            assert d[key] == list(array)


def test_table_csv_validates_shapes():
    with pytest.raises(ValueError, match="header"):
        table_csv(("a",), (np.zeros(2), np.zeros(2)))
    with pytest.raises(ValueError, match="equal length"):
        table_csv(("a", "b"), (np.zeros(2), np.zeros(3)))


def _table_csv_reference(header, columns):
    """The per-row writer table_csv replaced; its bytes are the contract."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


_CSV_FIELD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.225073858507201e-308, 1e16,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@st.composite
def _tables(draw):
    n_columns, n_rows = draw(st.integers(1, 4)), draw(st.integers(0, 50))
    header = draw(st.lists(st.text("abz_", min_size=1, max_size=4),
                           min_size=n_columns, max_size=n_columns))
    columns = [np.array(draw(st.lists(_CSV_FIELD, min_size=n_rows,
                                      max_size=n_rows)), dtype=float)
               for _ in range(n_columns)]
    return header, columns


@given(_tables())
@settings(max_examples=200, deadline=None)
def test_table_csv_matches_the_per_row_writer(table):
    header, columns = table
    assert table_csv(header, columns) == _table_csv_reference(header, columns)
