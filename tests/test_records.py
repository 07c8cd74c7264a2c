"""Every value class of the package against a frozen dataclass of its fields.

The records are ``__slots__`` classes on ``emodel._common._Record``. Each one
must behave as ``dataclasses.make_dataclass(name, fields, frozen=True)`` does
on the same field values: the same repr, hash and field dict, equality only
with its own class, a pickle round trip, ``match`` by position, and an
AttributeError on assigning or deleting a field.
"""

import dataclasses
import inspect
import pickle
import struct

import pytest

from emodel._common import ModelKind, _Record
from emodel.additivity import AdditivityReport, Classification, PmcAdditivity
from emodel.conservation import (MAX, SUM, ComposabilityReport, CompositionCounterexample,
                                 Operator, OperatorDetection, OperatorTable, Violation,
                                 ViolationKind, ViolationReport)
from emodel.core import (AggregatedRun, ApplicationRun, CompoundRun, Compounds, Dataset,
                         EnergyModel, PmcVector, RunConfig, RunRef)
from emodel.fitting import CorrelationMatrix, ErrorSummary
from emodel.partitioning import EnergyFunction, PartitionResult
from emodel.stats import MeanEstimate

VECTOR = PmcVector(["X1", "X2"], [3, 4.5])
CONFIG = RunConfig(2, "s")
RUN_A = ApplicationRun("a", CONFIG, VECTOR, 1.0, 20.0, "r1")
RUN_B = ApplicationRun("b", RunConfig(4), PmcVector(("X1", "X2"), (1.0, 2.0)), 2.0, 10.0)
COMPOUND = CompoundRun("c", RUN_A.ref, RUN_B.ref, VECTOR, 30.0)
DATASET = Dataset(("X1", "X2"), (RUN_A, RUN_B))
WITNESS = CompositionCounterexample(VECTOR, VECTOR, VECTOR, 1.0, 2.5)
DETECTION = OperatorDetection(MAX, 2, "X2", True, 3, WITNESS)
PER_PMC = PmcAdditivity("X1", True, 1.5, Classification.ADDITIVE)
VIOLATION = Violation(ViolationKind.NEGATIVE_COEFFICIENT, "X2", -0.5)

#: Each record class with constructor calls: positional and keyword
#: arguments, defaults left out, and inputs the constructor normalises.
CALLS = {
    PmcVector: [((("X1", "X2"), (3.0, 4.5)), {}), ((), {"names": ["X1"], "counts": [7]})],
    RunConfig: [((2, "s"), {}), ((4,), {})],
    ApplicationRun: [(("a", CONFIG, VECTOR, 1.0, 20.0, "r1"), {}),
                     (("b", CONFIG, VECTOR), {"exec_time_s": 2.0, "dynamic_energy_j": 0.0})],
    CompoundRun: [(("c", RUN_A.ref, RUN_B.ref, VECTOR, 30.0), {})],
    AggregatedRun: [(("a", CONFIG, VECTOR, 1.0, 20.0, 2), {})],
    Dataset: [((["X1", "X2"], [RUN_A, RUN_B], [COMPOUND]), {}),
              ((("X1", "X2"), (RUN_A,)), {})],
    Compounds: [((("c",), (0,), (1,), struct.pack("3d", 3.0, 4.5, 30.0), ("X1", "X2"), DATASET),
                 {}),
                ((["c", "d"], [1, 0], [1, 1], bytes(struct.pack("6d", *range(6))), ["X1", "X2"]),
                 {"dataset": DATASET})],
    EnergyModel: [((["X1", "X2"], 0, [1, 2.5], "zero_intercept_nonneg"), {}),
                  ((("X1",), -1.0, (0.5,), ModelKind.UNCONSTRAINED), {})],
    CorrelationMatrix: [((["y", "X1"], [[1.0, 0.5], [0.5, 1.0]]), {})],
    ErrorSummary: [((0.5, 1.0, 2.0, 3), {})],
    PmcAdditivity: [(("X1", True, 1.5, Classification.ADDITIVE), {})],
    AdditivityReport: [((5.0, [PER_PMC], ["X1"]), {})],
    Operator: [(("sum_plus_delta", 1.0), {}), (("max",), {})],
    OperatorTable: [((MAX, {2: SUM}), {}), ((), {})],
    Violation: [((ViolationKind.NEGATIVE_COEFFICIENT, "X2", -0.5), {}),
                ((ViolationKind.NEGATIVE_PREDICTION_WITNESS,),
                 {"witness": VECTOR, "predicted_j": -1.0})],
    ViolationReport: [(([VIOLATION],), {}), (((),), {})],
    CompositionCounterexample: [((VECTOR, VECTOR, VECTOR, 1.0, 2.5), {})],
    OperatorDetection: [((MAX, 2, "X2", True, 3, WITNESS), {}),
                        ((SUM, 1, "X1", False, 10, None), {})],
    ComposabilityReport: [((10, 1, 1.0, True, True, (), (DETECTION,)), {})],
    EnergyFunction: [(("p", [(1024, 512, 2), (512, 512, 1.0)], 512), {})],
    PartitionResult: [((1, 2, 1.5, 2.5, 4.0), {})],
    MeanEstimate: [((1.0, 0.5, 3, False), {}), ((0.0, 0.5, 3, False),
                                                {"relative_undefined": True})],
}


def all_records():
    found, stack = [], list(_Record.__subclasses__())
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


def test_every_record_class_has_calls():
    assert set(all_records()) == set(CALLS)


def frozen_oracle(cls):
    return dataclasses.make_dataclass(cls.__qualname__, cls._FIELDS, frozen=True)


def matched(record, cls):
    """The fields ``match`` binds with a class pattern of one name per field."""
    names = ", ".join(f"v{i}" for i in range(len(cls._FIELDS)))
    namespace = {"record": record, "cls": cls}
    exec(f"match record:\n    case cls({names}):\n        got = ({names},)\n", namespace)
    return namespace["got"]


def error(action) -> str:
    with pytest.raises(AttributeError) as info:
        action()
    return str(info.value)


@pytest.mark.parametrize("cls, args, kwargs", [
    pytest.param(cls, args, kwargs, id=f"{cls.__name__}-{i}")
    for cls, calls in CALLS.items() for i, (args, kwargs) in enumerate(calls)
])
def test_a_record_behaves_as_a_frozen_dataclass_of_its_fields(cls, args, kwargs):
    record = cls(*args, **kwargs)
    values = tuple(getattr(record, name) for name in cls._FIELDS)
    oracle = frozen_oracle(cls)(*values)
    assert list(inspect.signature(cls).parameters) == list(cls._FIELDS)
    assert cls.__match_args__ == type(oracle).__match_args__ == cls._FIELDS
    assert repr(record) == repr(oracle)
    assert record._asdict() == dataclasses.asdict(oracle)
    assert record == cls(*args, **kwargs) == cls(*values)
    assert record != oracle and record != values
    try:
        expected_hash = hash(oracle)
    except TypeError:  # a field that is not hashable: neither is the record
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected_hash
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record and repr(copy) == repr(record)
    assert matched(record, cls) == values
    for name, value in zip(cls._FIELDS, values):
        assert error(lambda: setattr(record, name, value)) == error(
            lambda: setattr(oracle, name, value))
        assert error(lambda: delattr(record, name)) == error(lambda: delattr(oracle, name))
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_constructors_normalise_their_fields():
    assert repr(PmcVector(["X1"], [7]).counts) == "(7.0,)"
    model = EnergyModel(["X1", "X2"], 0, [1, 2.5], "zero_intercept_nonneg")
    assert (model.pmc_names, model.coefficients, model.kind) == (
        ("X1", "X2"), (1.0, 2.5), ModelKind.ZERO_INTERCEPT_NONNEG)
    assert repr(model.intercept) == "0.0"
    assert CorrelationMatrix(["y"], [[1.0]]).values == ((1.0,),)
    assert AdditivityReport(5.0, [PER_PMC], ["X1"]).per_pmc == (PER_PMC,)
    assert ViolationReport([VIOLATION]).violations == (VIOLATION,)
    overrides = {2: SUM}
    table = OperatorTable(MAX, overrides)
    overrides[3] = MAX
    assert table.overrides == {2: SUM}
    assert OperatorTable().overrides is not OperatorTable().overrides
    dataset = Dataset(["X1", "X2"], [RUN_A], ())
    assert (dataset.pmc_names, dataset.runs, dataset.compounds) == (("X1", "X2"), (RUN_A,), ())
    assert "runs" in vars(dataset) and "counts" in vars(dataset)
    assert RunRef("a", CONFIG) == RUN_A.ref


def test_records_pickled_under_emodel_core_still_load():
    """The run records and the model moved from ``emodel.core`` to
    ``emodel.model``; a pickle that names them in ``emodel.core`` loads as
    the same classes, through the re-exports."""
    model = EnergyModel(["X1", "X2"], 0, [1, 2.5], "zero_intercept_nonneg")
    for record in (VECTOR, CONFIG, RUN_A, RUN_A.ref, COMPOUND, model):
        data = pickle.dumps(record, protocol=0)
        assert b"emodel.model\n" in data
        old = pickle.loads(data.replace(b"emodel.model\n", b"emodel.core\n"))
        assert type(old) is type(record) and old == record


def test_error_summaries_pickled_under_emodel_fitting_still_load():
    """``ErrorSummary`` and ``evaluate`` moved from ``emodel.fitting`` to
    ``emodel.model``; the old names are the same objects, and a pickle that
    names ``emodel.fitting`` loads through the re-export."""
    import emodel
    import emodel.fitting
    import emodel.model

    assert emodel.fitting.ErrorSummary is emodel.model.ErrorSummary is emodel.ErrorSummary
    assert emodel.fitting.evaluate is emodel.model.evaluate is emodel.evaluate
    summary = ErrorSummary(0.5, 1.0, 2.0, 3)
    data = pickle.dumps(summary, protocol=0)
    assert b"emodel.model\n" in data
    old = pickle.loads(data.replace(b"emodel.model\n", b"emodel.fitting\n"))
    assert type(old) is ErrorSummary and old == summary
