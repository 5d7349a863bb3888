"""Deterministic, unit-safe energy accounting for EV fleet-conversion
scenarios: fleet electricity demand, battery production energy, CO2 and
freshwater consequences, and the renewable build-out fraction, with a
reproduction suite pinned to the published study's figures.
"""

from .quantities import (
    BTU_TO_WH_EXACT,
    BTU_TO_WH_PAPER,
    GASOLINE_HEAT_BTU_PER_GAL,
    Dimension,
    Quantity,
    format_quantity,
    parse_quantity,
    quantity,
)
from .refdata import (
    BatteryChemistry,
    EvModel,
    GridMix,
    ReferenceDataset,
    builtin_chemistry,
    builtin_dataset,
    builtin_ev_catalog,
    catalog_stats,
    source_group_energy,
    validate_mix,
)
from .scenario import (
    Assessment,
    Scenario,
    SweepSpec,
    assess,
    iter_sweep,
    load_builtin_scenario,
    load_scenario,
    parse_scenario,
    render_scenario,
    sweep,
)
from .report import render, render_comparisons, render_sweep, reproduce, write_sweep

__version__ = "0.1.0"

__all__ = [
    "Dimension",
    "Quantity",
    "quantity",
    "parse_quantity",
    "format_quantity",
    "BTU_TO_WH_EXACT",
    "BTU_TO_WH_PAPER",
    "GASOLINE_HEAT_BTU_PER_GAL",
    "GridMix",
    "BatteryChemistry",
    "EvModel",
    "ReferenceDataset",
    "builtin_dataset",
    "builtin_chemistry",
    "builtin_ev_catalog",
    "validate_mix",
    "source_group_energy",
    "catalog_stats",
    "Scenario",
    "Assessment",
    "SweepSpec",
    "load_scenario",
    "parse_scenario",
    "load_builtin_scenario",
    "render_scenario",
    "assess",
    "iter_sweep",
    "sweep",
    "render",
    "render_sweep",
    "write_sweep",
    "render_comparisons",
    "reproduce",
    "__version__",
]
