"""Trace-driven proxy cache simulation with closed-form traffic models."""

from .analytics import (BandwidthParams, ModelReport, hit_miss_on_demand,
                        miss_probability, model_report, top_c_mass,
                        top_c_mass_asymptotic)
from .cache import POLICIES
from .popularity import (ZipfCatalog, build_catalog, generalized_harmonic,
                         power_modulus, probability, sample_ranks,
                         zeta_partial_terms)
from .simulator import (DEFAULT_ALPHAS, CapacityComparison, SimConfig,
                        SimReport, compare_analytic, fit_power_law,
                        run_simulation, simulate_workload, sweep)
from .workload import (ObjectAttributes, TraceParseError, Workload,
                       assign_attributes, generate_workload, load_trace,
                       rank_histogram, save_trace)

__version__ = "0.1.0"

__all__ = [
    "BandwidthParams", "CapacityComparison", "DEFAULT_ALPHAS", "ModelReport",
    "ObjectAttributes", "POLICIES", "SimConfig", "SimReport",
    "TraceParseError", "Workload", "ZipfCatalog", "assign_attributes",
    "build_catalog", "compare_analytic", "fit_power_law",
    "generalized_harmonic", "generate_workload", "hit_miss_on_demand",
    "load_trace", "miss_probability", "model_report", "power_modulus",
    "probability", "rank_histogram", "run_simulation", "sample_ranks",
    "save_trace", "simulate_workload", "sweep", "top_c_mass",
    "top_c_mass_asymptotic", "zeta_partial_terms",
]
