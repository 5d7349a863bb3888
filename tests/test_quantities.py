import math
from decimal import ROUND_HALF_EVEN, Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evdemand.errors import (
    DimensionMismatch,
    FractionOutOfRange,
    NegativeWherePhysical,
    NonFiniteMagnitude,
    ParseError,
    UnknownUnit,
)
from evdemand.quantities import (
    BTU_TO_WH_EXACT,
    CANONICAL_UNIT,
    CATALOG,
    PARSE_UNITS,
    Dimension,
    Quantity,
    _format_sig,
    format_quantity,
    parse_quantity,
    quantity,
)
from evdemand.scenario import parse_scenario

_GALLONS = "[meta]\ndataset = us2001\n[fleet]\nbasis = gallons\n"


class TestConvert:
    def test_twh_to_wh(self):
        q = parse_quantity("4055 TWh")
        assert q.in_unit("Wh") == 4.055e15

    def test_kwh_to_wh(self):
        assert quantity(25, "kWh").in_unit("Wh") == 25000.0

    def test_btu_under_paper_factor(self):
        s = parse_scenario(_GALLONS + "btu_to_wh = paper\n")
        assert s.fleet_basis.btu_to_wh.in_unit("Wh/Btu") == 0.2929

    def test_btu_defaults_to_exact_factor(self):
        s = parse_scenario(_GALLONS)
        assert s.fleet_basis.btu_to_wh.magnitude == BTU_TO_WH_EXACT

    def test_bare_btu_is_not_a_unit(self):
        # the Wh factor is a scenario choice, so Btu exists only as Wh/Btu
        with pytest.raises(UnknownUnit):
            quantity(1, "Btu")

    def test_unknown_unit(self):
        with pytest.raises(UnknownUnit):
            quantity(1, "TWh").in_unit("furlong")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quantity(1, "TWh").in_unit("gal")

    def test_kg_round_trip_is_exact(self):
        q = quantity(500, "kg")
        assert q.magnitude == 0.5  # metric tons
        assert q.in_unit("kg") == 500.0


class TestParse:
    def test_energy_literal(self):
        q = parse_quantity("29000 TWh")
        assert q.dimension is Dimension.ENERGY
        assert q.magnitude == 2.9e16

    def test_zero_volume(self):
        q = parse_quantity("0 gal")
        assert q.dimension is Dimension.VOLUME
        assert q.magnitude == 0.0

    def test_percent(self):
        q = parse_quantity("61 %")
        assert q.dimension is Dimension.FRACTION
        assert q.magnitude == 0.61

    def test_percent_without_space(self):
        assert parse_quantity("61%").magnitude == 0.61

    def test_exponent_number(self):
        assert parse_quantity("113.1e9 gal").magnitude == 113.1e9

    def test_empty_is_parse_error_at_offset_zero(self):
        with pytest.raises(ParseError) as exc:
            parse_quantity("   ")
        assert exc.value.offset == 0

    def test_missing_number(self):
        with pytest.raises(ParseError) as exc:
            parse_quantity("TWh")
        assert exc.value.offset == 0

    def test_missing_unit_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_quantity("12")
        assert exc.value.offset == 2

    def test_unknown_unit(self):
        with pytest.raises(UnknownUnit):
            parse_quantity("12 bogons")

    def test_negative_where_physical(self):
        with pytest.raises(NegativeWherePhysical):
            parse_quantity("-5 TWh")

    def test_fraction_above_one(self):
        with pytest.raises(FractionOutOfRange):
            parse_quantity("150 %")


class TestQuantityInvariants:
    def test_nan_rejected(self):
        with pytest.raises(NonFiniteMagnitude):
            Quantity(float("nan"), Dimension.ENERGY)

    def test_inf_rejected(self):
        with pytest.raises(NonFiniteMagnitude):
            Quantity(math.inf, Dimension.ENERGY)

    def test_negative_rejected(self):
        with pytest.raises(NegativeWherePhysical):
            Quantity(-1.0, Dimension.MASS)

    def test_negative_zero_normalized(self):
        assert str(Quantity(-0.0, Dimension.ENERGY)).startswith("0.0")

    @given(st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 1.0, 1.5, -1.0])),
           st.sampled_from(Dimension))
    def test_copies_pass_the_constructor_checks(self, magnitude, dim):
        def outcome(build):
            try:
                q = build()
            except Exception as exc:
                return type(exc), str(exc)
            return type(q), repr(q.magnitude), q.dimension

        built = outcome(lambda: Quantity(magnitude, dim))
        assert outcome(lambda: Quantity._make([magnitude, dim])) == built
        assert outcome(lambda: Quantity(0.5, dim)._replace(magnitude=magnitude)) == built
        assert outcome(lambda: Quantity(2.0, Dimension.ENERGY)._replace(
            magnitude=magnitude, dimension=dim)) == built

    def test_replace_checks_against_the_new_dimension(self):
        with pytest.raises(FractionOutOfRange, match="fraction 5.0 exceeds 1"):
            Quantity(5.0, Dimension.ENERGY)._replace(dimension=Dimension.FRACTION)
        with pytest.raises(NegativeWherePhysical):
            Quantity(1.0, Dimension.ENERGY)._replace(magnitude=-5.0)
        with pytest.raises(NonFiniteMagnitude):
            Quantity._make([math.inf, Dimension.FRACTION])
        assert repr(Quantity(1.0, Dimension.MASS)._replace(magnitude=-0.0).magnitude) == "0.0"

    def test_catalog_immutable(self):
        with pytest.raises(TypeError):
            CATALOG.units["Wh"] = None  # type: ignore[index]
        with pytest.raises(Exception):
            CATALOG.btu_to_wh_exact = 1.0  # type: ignore[misc]

    def test_unit_tables_derived_from_catalog(self):
        d = Dimension
        assert dict(CANONICAL_UNIT) == {
            d.ENERGY: "Wh", d.POWER: "W", d.SPEED: "mph", d.DISTANCE: "mi",
            d.VOLUME: "gal", d.MASS: "t", d.COUNT: "count", d.FRACTION: "frac",
            d.CARBON_INTENSITY: "Mt/TWh", d.WATER_INTENSITY: "gal/MWh",
            d.HEAT_CONTENT: "Btu/gal", d.BTU_CONVERSION: "Wh/Btu",
            d.ENERGY_DENSITY: "Wh/kg"}
        assert sorted(PARSE_UNITS) == sorted([
            "Wh", "kWh", "MWh", "TWh", "W", "kW", "mph", "mi", "gal", "t", "Mt",
            "Btu/gal", "gal/MWh", "Mt/TWh", "Wh/Btu", "Wh/kg", "kg", "%", "frac"])

    def test_two_fields_only(self):
        q = quantity(25, "kWh")
        assert list(q._fields) == ["magnitude", "dimension"]
        assert q.canonical == q.magnitude == 25000.0
        assert str(q) == "25000.0 Wh"

    def test_canonical_is_the_magnitude_field(self):
        assert Quantity.__dict__["canonical"] is Quantity.__mro__[1].__dict__["magnitude"]
        q = quantity(25, "kWh")
        with pytest.raises(AttributeError):
            q.canonical = 1.0  # type: ignore[misc]
        assert q.canonical == 25000.0

class TestFormat:
    def test_fleet_energy_five_digits(self):
        # oracle by hand: 29000 * 0.28 * 0.61 = 4953.2
        q = Quantity(4.9532e15, Dimension.ENERGY)
        assert format_quantity(q, "TWh", 5) == "4953.2 TWh"

    def test_full_fraction_as_percent(self):
        assert format_quantity(Quantity(1.0, Dimension.FRACTION), "%", 3) == "100 %"

    def test_per_ev_energy_four_digits(self):
        # oracle by hand: 112 * 100 / 97.5 = 114.871..., rounds to 114.9
        q = Quantity(1.1487e5, Dimension.ENERGY)
        assert format_quantity(q, "kWh", 4) == "114.9 kWh"

    def test_sig_digits_must_be_positive(self):
        with pytest.raises(ValueError):
            format_quantity(Quantity(1.0, Dimension.ENERGY), "Wh", 0)

    def test_unit_must_match_dimension(self):
        with pytest.raises(DimensionMismatch):
            format_quantity(Quantity(1.0, Dimension.ENERGY), "gal", 3)

    def test_deterministic(self):
        q = Quantity(4953.2e12, Dimension.ENERGY)
        assert format_quantity(q, "TWh", 5) == format_quantity(q, "TWh", 5)


def _sig_reference(x: float, n: int) -> str:
    """``x`` rounded half-even to ``n`` significant digits from its exact
    decimal value, written plainly for 1e-4 <= |r| < 1e16, else as mantissa
    e+-XX, with no trailing zeros."""
    if x == 0.0:
        return "0"
    exact = Decimal(x)
    r = exact.quantize(Decimal(1).scaleb(exact.adjusted() - n + 1), ROUND_HALF_EVEN)
    if -4 <= r.adjusted() <= 15:
        plain = format(r, "f")
        return plain.rstrip("0").rstrip(".") if "." in plain else plain
    sign, digits, _ = r.as_tuple()
    text = "".join(map(str, digits)).rstrip("0") or "0"
    mantissa = text[0] + ("." + text[1:] if len(text) > 1 else "")
    return f"{'-' * sign}{mantissa}e{r.adjusted():+03d}"


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 17))
def test_format_sig_rounds_the_exact_value_half_even(x, n):
    assert _format_sig(x, n) == _sig_reference(x, n)


# the 1e16 edge (at 17 digits "g" would write 1e16 .. 1e17 plainly), the 1e15
# and 1e-4 edges, the extreme floats, and the two figures on a rounding tie
SIG_EDGES = (1e16, 9999999999999998.0, 1.2345678901234568e16, 999999999999999.9, 1e15,
             1e-4, 9.99995e-5, 5e-324, 1.7976931348623157e308, 2899.3250000000003,
             172.47750000000005)


@pytest.mark.parametrize("x", SIG_EDGES)
def test_format_sig_at_the_edges(x):
    for n in range(1, 18):
        for v in (x, -x):
            assert _format_sig(v, n) == _sig_reference(v, n), (v, n)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_format_sig_refuses_a_value_with_no_digits(x):
    for n in range(1, 18):
        with pytest.raises(NonFiniteMagnitude, match=f"cannot print {x!r}"):
            _format_sig(x, n)


def test_format_quantity_refuses_a_value_that_overflows_in_its_unit():
    q = Quantity(1e308, Dimension.MASS)  # 1e311 kg
    for n in range(1, 18):
        with pytest.raises(NonFiniteMagnitude, match="cannot print inf"):
            format_quantity(q, "kg", n)
        assert format_quantity(q, "t", n).endswith("e+308 t")


_MAGNITUDES = st.floats(min_value=1e-6, max_value=1e18, allow_nan=False,
                        allow_infinity=False)


@st.composite
def _unit_and_magnitude(draw):
    unit = draw(st.sampled_from(PARSE_UNITS))
    value = draw(_MAGNITUDES)
    if unit == "%":
        value = draw(st.floats(min_value=0.0, max_value=100.0))
    elif unit == "frac":
        value = draw(st.floats(min_value=0.0, max_value=1.0))
    return unit, value


class TestProperties:
    @given(_unit_and_magnitude())
    def test_canonical_is_the_same_float(self, unit_value):
        unit, value = unit_value
        q = quantity(value, unit)
        assert q.canonical is q.magnitude

    @given(_unit_and_magnitude())
    def test_convert_round_trip(self, unit_value):
        unit, value = unit_value
        q = quantity(value, unit)
        back = quantity(q.in_unit(unit), unit)
        assert back.magnitude == pytest.approx(q.canonical, rel=1e-12)

    @given(_unit_and_magnitude())
    def test_parse_format_round_trip(self, unit_value):
        unit, value = unit_value
        q = quantity(value, unit)
        reparsed = parse_quantity(format_quantity(q, unit, 17))
        assert reparsed.canonical == pytest.approx(q.canonical, rel=1e-12)

    @given(st.integers(min_value=-40, max_value=40), _MAGNITUDES,
           st.sampled_from(["kWh", "MWh", "TWh"]))
    def test_convert_exactly_linear_under_binary_scaling(self, k, value, unit):
        # scaling by powers of two commutes with rounding bit for bit
        scale = 2.0 ** k
        q = Quantity(value, Dimension.ENERGY)
        scaled = Quantity(scale * value, Dimension.ENERGY)
        assert scaled.in_unit(unit) == scale * q.in_unit(unit)

    @pytest.mark.parametrize("scale", [1.0, 10.0, 100.0, 1e3, 1e6])
    @pytest.mark.parametrize("value", [4055.0, 29000.0, 113.1, 2480.0, 0.2929])
    def test_convert_linear_for_powers_of_ten_within_one_ulp(self, scale, value):
        # decimal scalings carry one extra rounding each side, so bit
        # identity is unattainable in binary floats; one ulp is the bound
        q = Quantity(value, Dimension.ENERGY)
        scaled = Quantity(scale * value, Dimension.ENERGY)
        lhs = scaled.in_unit("TWh")
        rhs = scale * q.in_unit("TWh")
        assert lhs == rhs or abs(lhs - rhs) <= math.ulp(max(abs(lhs), abs(rhs)))

    @given(st.sampled_from(list(Dimension)), st.sampled_from(PARSE_UNITS))
    def test_cross_dimension_convert_rejected(self, dim, unit):
        u = CATALOG.lookup(unit)
        if u.dimension is dim:
            return
        with pytest.raises(DimensionMismatch):
            Quantity(0.5, dim).in_unit(unit)
