import pytest
from hypothesis import given
from hypothesis import strategies as st

from evdemand import engine
from evdemand.engine import (
    GallonsBasis,
    SharesBasis,
    battery_demand_method_a,
    battery_demand_method_b,
    capacity_deficit,
    carbon_intensity,
    fleet_energy,
    per_ev_energy,
    printed_style,
    water_use,
)
from evdemand.errors import (
    DimensionMismatch,
    ZeroBaseline,
    ZeroGeneration,
    ZeroPerEvEnergy,
    ZeroSpeed,
)
from evdemand.quantities import (
    BTU_TO_WH_EXACT,
    BTU_TO_WH_PAPER,
    Dimension,
    Quantity,
    quantity,
)
from evdemand.refdata import builtin_chemistry

E = Dimension.ENERGY
F = Dimension.FRACTION


def _shares(total_twh, transport, fuel):
    return SharesBasis(total_energy=quantity(total_twh, "TWh"),
                       transport_share=Quantity(transport, F),
                       fuel_share=Quantity(fuel, F))


def _co2(energy, intensity):
    """CO2 from ``energy`` at ``intensity``, through the kernel ``assess`` calls."""
    return engine._additional_co2(energy.canonical, intensity.canonical)


def _fraction(baseline, share, fleet):
    """The conversion fraction, through the kernels ``assess`` calls."""
    supply = engine._renewable_supply(baseline.canonical, share.canonical)
    return engine._sustainable_conversion_fraction(supply.canonical, fleet.canonical)


def _gallons(gal, heat=114000.0, btu=BTU_TO_WH_EXACT):
    return GallonsBasis(gallons=quantity(gal, "gal"),
                        heat_content=quantity(heat, "Btu/gal"),
                        btu_to_wh=Quantity(btu, Dimension.BTU_CONVERSION))


class TestFleetEnergy:
    def test_published_shares_product(self):
        fleet = fleet_energy(_shares(29000, 0.28, 0.61))
        assert fleet.in_unit("TWh") == pytest.approx(4953.2, rel=1e-12)
        assert fleet.in_unit("TWh") == pytest.approx(4953, rel=0.0005)

    def test_zero_share(self):
        assert fleet_energy(_shares(29000, 0.0, 0.61)).magnitude == 0.0

    def test_halves(self):
        fleet = fleet_energy(_shares(1000, 0.5, 0.5))
        assert fleet.in_unit("TWh") == 250.0

    def test_dimension_checked(self):
        basis = SharesBasis(total_energy=quantity(1, "gal"),
                            transport_share=Quantity(0.5, F),
                            fuel_share=Quantity(0.5, F))
        with pytest.raises(DimensionMismatch):
            fleet_energy(basis)

    def test_gallons_with_exact_factor(self):
        fleet = fleet_energy(_gallons(113.1e9))
        assert fleet.magnitude == pytest.approx(113.1e9 * 114000 * BTU_TO_WH_EXACT,
                                                rel=1e-12)
        assert fleet.in_unit("TWh") == pytest.approx(3778, rel=0.001)

    def test_gallons_with_published_factor(self):
        fleet = fleet_energy(_gallons(113.1e9, btu=BTU_TO_WH_PAPER))
        # documents the constant discrepancy: the rounded factor undershoots
        assert fleet.in_unit("TWh") == pytest.approx(3776.4, rel=0.0005)

    def test_zero_gallons(self):
        assert fleet_energy(_gallons(0.0)).magnitude == 0.0


class TestPerEvEnergy:
    def test_median_vehicle(self):
        q = per_ev_energy(quantity(112, "kW"), quantity(100, "mi"),
                          quantity(97.5, "mph"))
        assert q.in_unit("kWh") == pytest.approx(112 * 100 / 97.5, rel=1e-12)
        assert q.in_unit("kWh") == pytest.approx(115, rel=0.005)

    def test_zero_range(self):
        q = per_ev_energy(quantity(112, "kW"), quantity(0, "mi"),
                          quantity(97.5, "mph"))
        assert q.magnitude == 0.0

    def test_roadster_row(self):
        # hand compute: 215 kW x 227 mi / 125 mph = 390.44 kWh
        q = per_ev_energy(quantity(215, "kW"), quantity(227, "mi"),
                          quantity(125, "mph"))
        assert q.in_unit("kWh") == pytest.approx(390.44, rel=1e-12)

    def test_zero_speed(self):
        with pytest.raises(ZeroSpeed):
            per_ev_energy(quantity(112, "kW"), quantity(100, "mi"),
                          quantity(0, "mph"))


class TestBatteryDemand:
    def test_method_a_2005(self):
        demand = battery_demand_method_a(quantity(4953, "TWh"), quantity(115, "kWh"),
                                         4, builtin_chemistry("nimh"))
        assert demand.ev_count.magnitude == pytest.approx(43.07e9, rel=0.001)
        assert demand.battery_count.magnitude == pytest.approx(172.28e9, rel=0.001)

    def test_method_a_2001(self):
        demand = battery_demand_method_a(quantity(3778, "TWh"), quantity(115, "kWh"),
                                         4, builtin_chemistry("pb_acid"))
        assert demand.battery_count.magnitude == pytest.approx(131.4e9, rel=0.002)

    def test_method_a_unit_case(self):
        demand = battery_demand_method_a(quantity(115, "kWh"), quantity(115, "kWh"),
                                         1, builtin_chemistry("pb_acid"))
        assert demand.ev_count.magnitude == 1.0
        assert demand.battery_count.magnitude == 1.0

    def test_method_a_zero_per_ev(self):
        with pytest.raises(ZeroPerEvEnergy):
            battery_demand_method_a(quantity(1, "TWh"), Quantity(0.0, E), 4,
                                    builtin_chemistry("nimh"))

    def test_method_b_2005(self):
        demand = battery_demand_method_b(quantity(4953, "TWh"),
                                         builtin_chemistry("nimh"))
        assert demand.battery_count.magnitude == pytest.approx(198.12e9, rel=0.001)
        assert demand.ev_count is None

    def test_method_b_2001(self):
        demand = battery_demand_method_b(quantity(3778, "TWh"),
                                         builtin_chemistry("nimh"))
        assert demand.battery_count.magnitude == pytest.approx(151.12e9, rel=0.001)

    def test_method_b_unit_case(self):
        demand = battery_demand_method_b(quantity(25, "kWh"),
                                         builtin_chemistry("pb_acid"))
        assert demand.battery_count.magnitude == 1.0

    def test_production_is_count_times_manufacture(self):
        chem = builtin_chemistry("nimh")
        demand = battery_demand_method_b(quantity(4953, "TWh"), chem)
        assert demand.production_energy.magnitude == \
            demand.battery_count.magnitude * chem.manufacture_energy.magnitude


class TestProductionTable:
    def test_consistent_equals_printed_times_1000_exactly(self):
        for fleet_twh in (4953, 3778):
            for chem_name in ("pb_acid", "nimh"):
                chem = builtin_chemistry(chem_name)
                demands = [
                    battery_demand_method_a(quantity(fleet_twh, "TWh"),
                                            quantity(115, "kWh"), 4, chem),
                    battery_demand_method_b(quantity(fleet_twh, "TWh"), chem),
                ]
                for demand in demands:
                    consistent = demand.production_energy
                    assert printed_style(consistent).magnitude * 1e3 == consistent.magnitude

    def test_method_b_2005_pb_cell(self):
        demand = battery_demand_method_b(quantity(4953, "TWh"),
                                         builtin_chemistry("pb_acid"))
        consistent = demand.production_energy
        assert consistent.in_unit("TWh") == pytest.approx(679550, rel=0.002)
        assert printed_style(consistent).in_unit("TWh") == pytest.approx(679.55, rel=0.002)

    def test_method_a_2001_nimh_cell(self):
        # hand compute: 131.4e9 batteries x 7176 kWh -> printed-style 942.9
        demand = battery_demand_method_a(quantity(3778, "TWh"), quantity(115, "kWh"),
                                         4, builtin_chemistry("nimh"))
        printed = printed_style(demand.production_energy)
        assert printed.in_unit("TWh") == pytest.approx(943.55, rel=0.002)

    def test_zero_batteries(self):
        demand = battery_demand_method_b(Quantity(0.0, E), builtin_chemistry("nimh"))
        assert demand.production_energy.magnitude == 0.0
        assert printed_style(demand.production_energy).magnitude == 0.0


class TestCarbonAccounting:
    def test_intensity(self):
        i = carbon_intensity(quantity(2480, "Mt"), quantity(4055, "TWh"))
        assert i.magnitude == pytest.approx(2480 / 4055, rel=1e-15)
        assert i.magnitude == pytest.approx(0.61159, rel=1e-4)

    def test_zero_emissions(self):
        i = carbon_intensity(quantity(0, "Mt"), quantity(4055, "TWh"))
        assert i.magnitude == 0.0

    def test_identity_ratio(self):
        i = carbon_intensity(quantity(2480, "Mt"), quantity(2480, "TWh"))
        assert i.magnitude == 1.0

    def test_zero_generation(self):
        with pytest.raises(ZeroGeneration):
            carbon_intensity(quantity(2480, "Mt"), Quantity(0.0, E))

    def test_generation_that_rounds_to_zero_twh(self):
        # 1e-315 Wh / 1e12 Wh per TWh underflows to 0.0, a divisor of zero
        with pytest.raises(ZeroGeneration, match="total generation must be positive"):
            carbon_intensity(quantity(2480, "Mt"), Quantity(1e-315, E))

    def test_additional_co2_published_total(self):
        i = carbon_intensity(quantity(2480, "Mt"), quantity(4055, "TWh"))
        co2 = _co2(quantity(6374.17, "TWh"), i)
        assert co2.in_unit("Mt") == pytest.approx(3900, rel=0.005)
        assert co2.in_unit("Mt") == pytest.approx(6374.17 * 2480 / 4055, rel=1e-12)

    def test_zero_energy(self):
        i = carbon_intensity(quantity(2480, "Mt"), quantity(4055, "TWh"))
        assert _co2(Quantity(0.0, E), i).magnitude == 0.0

    def test_calibration_closure_is_exact(self):
        i = carbon_intensity(quantity(2480, "Mt"), quantity(4055, "TWh"))
        assert _co2(quantity(4055, "TWh"), i).in_unit("Mt") == 2480.0


class TestWaterUse:
    def test_coal_cell(self):
        v = water_use(quantity(4953, "TWh"), Quantity(0.497, F),
                      quantity(480, "gal/MWh"))
        # hand multiplication under the published convention:
        # 4953e9 x 0.497 x 480 = 1181.587e12
        assert v.magnitude == pytest.approx(4953e9 * 0.497 * 480, rel=1e-12)
        assert v.magnitude == pytest.approx(1181.58e12, rel=0.005)

    def test_gas_cell_does_not_match_published(self):
        v = water_use(quantity(4953, "TWh"), Quantity(0.188, F),
                      quantity(180, "gal/MWh"))
        assert v.magnitude == pytest.approx(167.6e12, rel=0.001)
        # the published 336.11e12 is about 2x and irreproducible
        assert abs(v.magnitude - 336.11e12) / 336.11e12 > 0.4

    def test_zero_share(self):
        v = water_use(quantity(4953, "TWh"), Quantity(0.0, F),
                      quantity(480, "gal/MWh"))
        assert v.magnitude == 0.0


class TestStrategy:
    def test_published_point(self):
        f = _fraction(quantity(4055, "TWh"), Quantity(0.30, F), quantity(4953, "TWh"))
        assert f == pytest.approx(4055 * 0.30 / 4953, rel=1e-12)
        assert f == pytest.approx(0.2456, rel=1e-3)
        assert float(f"{f:.1e}") == 0.25  # rounds to the printed 25%

    def test_zero_share(self):
        f = _fraction(quantity(4055, "TWh"), Quantity(0.0, F), quantity(4953, "TWh"))
        assert f == 0.0

    def test_identity(self):
        f = _fraction(quantity(4953, "TWh"), Quantity(1.0, F), quantity(4953, "TWh"))
        assert f == 1.0


class TestCapacityDeficit:
    def test_published_totals(self):
        d = capacity_deficit(quantity(4953, "TWh"), quantity(1421.17, "TWh"),
                             quantity(4055, "TWh"))
        assert d.deficit.in_unit("TWh") == pytest.approx(6374.17 - 4055, rel=1e-12)
        assert d.ratio_to_baseline == pytest.approx(6374.17 / 4055, rel=1e-12)
        assert d.ratio_to_baseline == pytest.approx(1.572, rel=0.001)

    def test_fleet_only_ratio(self):
        d = capacity_deficit(quantity(4953, "TWh"), Quantity(0.0, E),
                             quantity(4055, "TWh"))
        assert d.ratio_to_baseline == pytest.approx(4953 / 4055, rel=1e-12)
        assert d.ratio_to_baseline == pytest.approx(1.221, rel=0.001)

    def test_zero_demand_has_zero_deficit(self):
        d = capacity_deficit(Quantity(0.0, E), Quantity(0.0, E),
                             quantity(4055, "TWh"))
        assert d.deficit.magnitude == 0.0
        assert d.ratio_to_baseline == 0.0

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaseline):
            capacity_deficit(quantity(1, "TWh"), Quantity(0.0, E), Quantity(0.0, E))


_SCALES = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False)
_ENERGIES_TWH = st.floats(min_value=1e-3, max_value=1e5, allow_nan=False,
                          allow_infinity=False)


class TestProperties:
    @given(_SCALES, _ENERGIES_TWH)
    def test_shares_homogeneous_in_energy(self, k, twh):
        base = fleet_energy(_shares(twh, 0.28, 0.61)).magnitude
        scaled = fleet_energy(_shares(k * twh, 0.28, 0.61)).magnitude
        assert scaled == pytest.approx(k * base, rel=1e-12, abs=1e-300)

    @given(_SCALES, _ENERGIES_TWH)
    def test_method_b_homogeneous_in_energy(self, k, twh):
        chem = builtin_chemistry("nimh")
        base = battery_demand_method_b(quantity(twh, "TWh"), chem)
        scaled = battery_demand_method_b(quantity(k * twh, "TWh"), chem)
        assert scaled.battery_count.magnitude == pytest.approx(
            k * base.battery_count.magnitude, rel=1e-12, abs=1e-300)

    @given(_SCALES, _ENERGIES_TWH)
    def test_water_homogeneous_in_energy(self, k, twh):
        wi = quantity(480, "gal/MWh")
        base = water_use(quantity(twh, "TWh"), Quantity(0.497, F), wi).magnitude
        scaled = water_use(quantity(k * twh, "TWh"), Quantity(0.497, F), wi).magnitude
        assert scaled == pytest.approx(k * base, rel=1e-12, abs=1e-300)

    @given(_SCALES, _ENERGIES_TWH)
    def test_co2_homogeneous_in_energy(self, k, twh):
        i = carbon_intensity(quantity(2480, "Mt"), quantity(4055, "TWh"))
        base = _co2(quantity(twh, "TWh"), i).magnitude
        scaled = _co2(quantity(k * twh, "TWh"), i).magnitude
        assert scaled == pytest.approx(k * base, rel=1e-12, abs=1e-300)

    def test_method_ratio_with_published_parameters(self):
        fleet = quantity(4953, "TWh")
        chem = builtin_chemistry("nimh")
        a = battery_demand_method_a(fleet, quantity(115, "kWh"), 4, chem)
        b = battery_demand_method_b(fleet, chem)
        ratio = a.battery_count.magnitude / b.battery_count.magnitude
        assert ratio == pytest.approx(4 * 25 / 115, rel=1e-12)
        assert ratio == pytest.approx(172.28 / 198.12, rel=1e-3)

    @given(st.floats(min_value=1e-3, max_value=1e6),
           st.floats(min_value=1e-3, max_value=1e6))
    def test_calibration_closure_within_a_few_ulps(self, mt, twh):
        # exact for the calibration pair (separate test); a few rounding
        # steps of slack for arbitrary values
        i = carbon_intensity(quantity(mt, "Mt"), quantity(twh, "TWh"))
        back = _co2(quantity(twh, "TWh"), i).in_unit("Mt")
        assert back == pytest.approx(mt, rel=5e-15)

    @given(_ENERGIES_TWH)
    def test_water_partition_sums_to_full_share(self, twh):
        wi = quantity(300, "gal/MWh")
        energy = quantity(twh, "TWh")
        shares = (0.497, 0.188, 0.030, 0.193, 0.065, 0.027)
        total = sum(water_use(energy, Quantity(s, F), wi).magnitude for s in shares)
        full = water_use(energy, Quantity(1.0, F), wi).magnitude
        assert total == pytest.approx(full, rel=1e-9)

    def test_pure_functions_bit_identical(self):
        basis = _shares(29000, 0.28, 0.61)
        assert fleet_energy(basis) == fleet_energy(basis)
        i1 = carbon_intensity(quantity(2480, "Mt"), quantity(4055, "TWh"))
        i2 = carbon_intensity(quantity(2480, "Mt"), quantity(4055, "TWh"))
        assert i1 == i2
