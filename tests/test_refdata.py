import math
import random
import statistics

import pytest

from evdemand.errors import EmptyField, UnknownChemistry, UnknownDataset, UnknownSource
from evdemand.quantities import Dimension, Quantity, quantity
from evdemand.refdata import (
    BatteryChemistry,
    EvModel,
    GridMix,
    builtin_chemistry,
    builtin_dataset,
    builtin_ev_catalog,
    catalog_stats,
    chemistry_names,
    dataset_ids,
    source_group_energy,
    validate_mix,
)


class TestBuiltinDatasets:
    def test_ids(self):
        assert dataset_ids() == ("us2001", "us2005")

    def test_unknown_dataset(self):
        with pytest.raises(UnknownDataset):
            builtin_dataset("us2030")

    def test_total_generation(self):
        ds = builtin_dataset("us2005")
        assert ds.mix.total_generation.in_unit("TWh") == 4055.0

    def test_shipped_shares(self):
        ds = builtin_dataset("us2005")
        assert dict(ds.mix.entries) == {
            "coal": 0.497, "natural_gas": 0.188, "oil": 0.030,
            "nuclear": 0.193, "hydro": 0.065, "other_renewables": 0.027,
        }

    def test_fossil_total_near_published(self):
        ds = builtin_dataset("us2005")
        fossil = sum(share for name, share in ds.mix.entries
                     if name in ("coal", "natural_gas", "oil"))
        assert abs(fossil - 0.714) <= 0.002

    def test_household_gasoline_2001(self):
        ds = builtin_dataset("us2001")
        assert ds.household_gasoline.magnitude == 113.1e9

    def test_builtins_pass_self_check(self):
        for dataset_id in dataset_ids():
            ds = builtin_dataset(dataset_id)
            assert validate_mix(ds.mix) == []
            assert ds.transport_share.dimension is Dimension.FRACTION
            assert ds.gasoline_share.dimension is Dimension.FRACTION
            # every water fuel is a source of the dataset's own mix
            assert set(ds.water_intensity) <= set(ds.mix.sources())

    def test_national_figures(self):
        ds = builtin_dataset("us2005")
        assert ds.total_energy_consumption.in_unit("TWh") == 29000.0
        assert ds.transport_share.magnitude == 0.28
        assert ds.gasoline_share.magnitude == 0.61
        assert ds.co2_total.in_unit("Mt") == 2480.0
        assert ds.water_intensity["coal"].magnitude == 480.0
        assert ds.water_intensity["natural_gas"].magnitude == 180.0


class TestValidateMix:
    def test_valid_shipped_mix(self):
        assert validate_mix(builtin_dataset("us2005").mix) == []

    def test_sum_violation(self):
        mix = GridMix(year="x", entries=(("coal", 0.6), ("gas", 0.6)),
                      total_generation=quantity(1, "TWh"))
        problems = validate_mix(mix)
        assert any("sum" in p for p in problems)

    def test_range_violation(self):
        mix = GridMix(year="x", entries=(("coal", -0.1), ("gas", 1.1)),
                      total_generation=quantity(1, "TWh"))
        problems = validate_mix(mix)
        assert sum("out of range" in p for p in problems) == 2

    def test_duplicate_source(self):
        mix = GridMix(year="x", entries=(("coal", 0.5), ("coal", 0.5)),
                      total_generation=quantity(1, "TWh"))
        assert any("duplicate" in p for p in validate_mix(mix))


class TestSourceGroupEnergy:
    def test_fossil_group(self):
        mix = builtin_dataset("us2005").mix
        fossil = source_group_energy(mix, ["coal", "natural_gas", "oil"])
        assert fossil.in_unit("TWh") == pytest.approx(2899.325, rel=1e-12)
        assert fossil.in_unit("TWh") == pytest.approx(2895, rel=0.005)

    def test_nuclear(self):
        mix = builtin_dataset("us2005").mix
        nuclear = source_group_energy(mix, ["nuclear"])
        assert nuclear.in_unit("TWh") == pytest.approx(782.615, rel=1e-12)
        assert nuclear.in_unit("TWh") == pytest.approx(783, rel=0.001)

    def test_empty_group(self):
        mix = builtin_dataset("us2005").mix
        assert source_group_energy(mix, []).magnitude == 0.0

    def test_unknown_source(self):
        with pytest.raises(UnknownSource):
            source_group_energy(builtin_dataset("us2005").mix, ["fusion"])

    def test_partition_sums_to_total(self):
        mix = builtin_dataset("us2005").mix
        total = sum(source_group_energy(mix, [name]).magnitude
                    for name in mix.sources())
        assert total == pytest.approx(mix.total_generation.magnitude, rel=1e-9)


def _fold(values: list[float]) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


# sum() compensates its float additions from Python 3.12 on, so on these
# shares a compensated result differs from the left-to-right one
SHARES = [0.1, 0.2, 0.3]


def test_float_totals_add_left_to_right_on_every_interpreter():
    assert _fold(SHARES) != math.fsum(SHARES)
    mix = GridMix(year="x", entries=tuple(zip("abcd", [*SHARES, 0.4])),
                  total_generation=quantity(1, "TWh"))
    assert repr(source_group_energy(mix, "abc").canonical) == repr(1e12 * _fold(SHARES))
    catalog = tuple(EvModel(name=f"m{i}", power=quantity(p, "W")) for i, p in enumerate(SHARES))
    assert repr(catalog_stats(catalog, "power").mean.canonical) == repr(_fold(SHARES) / 3)


class TestCatalogStats:
    @pytest.mark.parametrize("field", ["power", "max_speed", "range"])
    def test_builtin_catalog_has_stats_for_every_field(self, field):
        assert catalog_stats(builtin_ev_catalog(), field).count_used > 0

    def test_builtin_power_median_matches_stdlib_oracle(self):
        powers = [m.power.canonical for m in builtin_ev_catalog()
                  if m.power is not None]
        assert statistics.median(powers) == 112e3
        assert catalog_stats(builtin_ev_catalog(), "power").median.canonical == 112e3

    def test_power(self):
        stats = catalog_stats(builtin_ev_catalog(), "power")
        assert stats.count_used == 9
        assert stats.mean.in_unit("kW") == pytest.approx(1068.4 / 9, rel=1e-12)
        assert stats.median.in_unit("kW") == 112.0

    def test_max_speed(self):
        stats = catalog_stats(builtin_ev_catalog(), "max_speed")
        assert stats.count_used == 8
        assert stats.mean.magnitude == pytest.approx(715 / 8, rel=1e-12)
        assert stats.median.magnitude == 97.5

    def test_range_uses_midpoints(self):
        stats = catalog_stats(builtin_ev_catalog(), "range")
        assert stats.count_used == 9
        # midpoints 110 (100-120) and 40 (30-50); hand sum 816 over 9 models
        assert stats.mean.magnitude == pytest.approx(816 / 9, rel=1e-12)
        assert stats.median.magnitude == 100.0

    def test_empty_field(self):
        catalog = (EvModel(name="x", power=quantity(10, "kW")),)
        with pytest.raises(EmptyField):
            catalog_stats(catalog, "max_speed")

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            catalog_stats(builtin_ev_catalog(), "price")

    def test_median_matches_stdlib_oracle_over_random_catalogs(self):
        rng = random.Random(20260808)
        for _ in range(500):
            n = rng.randint(1, 50)
            models = []
            values = []
            for i in range(n):
                if rng.random() < 0.25:
                    models.append(EvModel(name=f"m{i}"))
                    continue
                lo = rng.uniform(1, 300)
                hi = lo + rng.uniform(0, 100)
                models.append(EvModel(name=f"m{i}", range_mi=(lo, hi)))
                values.append((lo + hi) / 2)
            catalog = tuple(models)
            if not values:
                with pytest.raises(EmptyField):
                    catalog_stats(catalog, "range")
                continue
            stats = catalog_stats(catalog, "range")
            assert stats.median.magnitude == pytest.approx(
                statistics.median(values), rel=1e-12)
            assert stats.mean.magnitude == pytest.approx(
                statistics.fmean(values), rel=1e-12)
            assert stats.count_used == len(values)


class TestChemistries:
    def test_builtin_names(self):
        assert chemistry_names() == ("nimh", "pb_acid")

    def test_unknown(self):
        with pytest.raises(UnknownChemistry):
            builtin_chemistry("li_ion")

    def test_pb_acid_values(self):
        chem = builtin_chemistry("pb_acid")
        assert chem.pack_capacity.in_unit("kWh") == 25.0
        assert chem.manufacture_energy.in_unit("kWh") == 3430.0
        assert chem.energy_density.magnitude == 50.0
        assert chem.pack_mass.in_unit("kg") == 500.0

    def test_nimh_values(self):
        chem = builtin_chemistry("nimh")
        assert chem.manufacture_energy.in_unit("kWh") == 7176.0
        # 75 Wh/kg x 330 kg = 24.75 kWh, inside the 2% capacity slack
        assert chem.energy_density.magnitude * chem.pack_mass.in_unit("kg") == 24750.0

    def test_capacity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BatteryChemistry(
                name="bad", display_name="bad",
                energy_density=quantity(50, "Wh/kg"),
                pack_mass=quantity(100, "kg"),        # implies 5 kWh
                pack_capacity=quantity(25, "kWh"),
                manufacture_energy=quantity(1000, "kWh"),
                emissions_note="", recycling_note="")

    def test_zero_manufacture_energy_rejected(self):
        with pytest.raises(ValueError):
            BatteryChemistry(
                name="bad", display_name="bad",
                energy_density=quantity(50, "Wh/kg"),
                pack_mass=quantity(500, "kg"),
                pack_capacity=quantity(25, "kWh"),
                manufacture_energy=Quantity(0.0, Dimension.ENERGY),
                emissions_note="", recycling_note="")
