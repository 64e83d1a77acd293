"""The public records are named tuples: immutable, picklable, and validated
however they are built."""

import copy
import math
import pickle

import pytest

from bsbound.dielectric import ComplexIndex, DrudeLorentzModel, Resonance
from bsbound.linewidth import DecayContext
from bsbound.optimizer import (
    AlphaExtraction,
    MinimizeConfig,
    MinimizeDiagnostics,
    MinimizeResult,
    SweepRow,
)
from bsbound.slab import ScaledSlabParams, SlabResponse

RESONANCE = Resonance(1.0, 2.0, 1e-3)
DIAGNOSTICS = MinimizeDiagnostics(1e-12, 40, 30, 7000)
RESULT = MinimizeResult(0.9, 6.2, 500.0, 9e-7, 1.2, "first", True, DIAGNOSTICS)

# (record, a field value its constructor rejects, or None for a plain record)
RECORDS = [
    (RESONANCE, {"gamma": -1.0}),
    (DrudeLorentzModel([RESONANCE]), {"resonances": ()}),
    (ComplexIndex(2.5, 1e-4), {"eta": 0.0}),
    (ScaledSlabParams(1e-3, 1e-3, 500.0, 6.2), {"eps_s": 1.0}),
    (DecayContext(1e9, 2.5), {"eta": 1.0}),
    (MinimizeConfig(1.0), {"eps_s_max": 0.5}),
    (SlabResponse(0.7 + 0.1j, 0.1 - 0.6j, 1e-6, 1.3), None),
    (DIAGNOSTICS, None),
    (RESULT, None),
    (AlphaExtraction(0.9, 1e-3, True, True, (RESULT, RESULT)), None),
    (SweepRow(1.0, 0.9, 6.2, 500.0, 9e-7, True), None),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, bad", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record, bad):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record


@pytest.mark.parametrize("record, bad", RECORDS, ids=IDS)
def test_immutable_without_instance_dict(record, bad):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])


VALIDATING = [(record, bad) for record, bad in RECORDS if bad is not None]


@pytest.mark.parametrize(
    "record, bad", VALIDATING, ids=[type(record).__name__ for record, _ in VALIDATING]
)
def test_replace_and_make_run_the_constructor_checks(record, bad):
    values = {**record._asdict(), **bad}
    with pytest.raises(ValueError) as built:
        type(record)(**values)
    for rebuild in (lambda: record._replace(**bad), lambda: type(record)._make(values.values())):
        with pytest.raises(ValueError) as rebuilt:
            rebuild()
        assert str(rebuilt.value) == str(built.value)
    # a valid _replace keeps the type and the other fields
    same = record._replace(**{record._fields[0]: record[0]})
    assert type(same) is type(record) and same == record


# every input record with float fields, one non-finite value per field
NON_FINITE = [
    (record, field, value)
    for record, _ in VALIDATING
    if not isinstance(record, DrudeLorentzModel)
    for field in record._fields
    for value in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize(
    "record, field, value", NON_FINITE,
    ids=[f"{type(r).__name__}-{f}-{v}" for r, f, v in NON_FINITE],
)
def test_non_finite_field_rejected_however_built(record, field, value):
    cls = type(record)
    values = {**record._asdict(), field: value}
    # tuple.__new__ skips the checks, so this pickle holds the bad field
    pickled = pickle.dumps(tuple.__new__(cls, values.values()))
    for build in (
        lambda: cls(**values),
        lambda: record._replace(**{field: value}),
        lambda: cls._make(values.values()),
        lambda: pickle.loads(pickled),
    ):
        with pytest.raises(ValueError, match=" must be finite, got "):
            build()
