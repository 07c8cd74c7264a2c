"""Energy modeling toolkit for PMC-based dynamic-energy prediction.

Measured runs carry performance-monitoring-counter vectors and dynamic
energy. On top of them the package offers: the two-stage additivity test
that decides which counters are trustworthy model inputs, three linear
model families (with intercept, through the origin, and non-negative
through the origin), energy-conservation checks with explicit
negative-prediction witnesses, a randomized composability harness, and
minimum-energy two-processor data partitioning over discrete energy
functions. The ``emodel`` command exposes the same operations for batch
use.

The public names below are loaded on first use (PEP 562), so importing the
package imports no submodule and no numpy; partitioning, the statistics, the
run records, the model file, ``predict`` and ``check_conservation`` never need it.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    # core types and I/O
    "PmcVector": "model",
    "RunConfig": "model",
    "RunRef": "model",
    "ApplicationRun": "model",
    "CompoundRun": "model",
    "AggregatedRun": "model",
    "Dataset": "core",
    "Compounds": "core",
    "ModelKind": "_common",
    "EnergyModel": "model",
    "DataFormatError": "_common",
    "load_runs": "core",
    "load_compounds": "core",
    "load_model": "model",
    "save_model": "model",
    # measurement statistics
    "MeasurementFaultWarning": "stats",
    "MeanEstimate": "stats",
    "dynamic_energy": "stats",
    "sample_mean_ci": "stats",
    "percent_error": "stats",
    "dynamic_error_from_total": "stats",
    "student_t_quantile": "stats",
    # additivity
    "INFINITE": "additivity",
    "Classification": "additivity",
    "PmcAdditivity": "additivity",
    "AdditivityReport": "additivity",
    "additivity_error": "additivity",
    "run_additivity_test": "additivity",
    "tolerance_sweep": "additivity",
    "core_config_analysis": "additivity",
    # model fitting
    "UNDEFINED": "fitting",
    "CorrelationMatrix": "fitting",
    "ErrorSummary": "model",
    "correlation_matrix": "fitting",
    "fit": "fitting",
    "predict": "model",
    "evaluate": "model",
    "nnls": "fitting",
    # conservation and composability
    "Operator": "conservation",
    "SUM": "conservation",
    "MAX": "conservation",
    "sum_plus_delta": "conservation",
    "OperatorTable": "conservation",
    "ViolationKind": "conservation",
    "Violation": "conservation",
    "ViolationReport": "conservation",
    "check_conservation": "conservation",
    "negative_witness": "conservation",
    "compose": "conservation",
    "CompositionCounterexample": "conservation",
    "verify_weak_composability": "conservation",
    "OperatorDetection": "conservation",
    "ComposabilityReport": "conservation",
    "strong_composability_check": "conservation",
    "generate_cases": "conservation",
    # partitioning
    "EnergyFunction": "partitioning",
    "PartitionResult": "partitioning",
    "slice_at_n": "partitioning",
    "partition": "partitioning",
    "energy_loss": "partitioning",
    "load_energy_function": "partitioning",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
