"""Config-parser fuzz: every input yields a valid object or a typed error.

The priority-map text, the scale-policy document and the fault-plan
document are the user-facing parsers behind ``--priority-map``,
``--policy`` and ``--fault-plan``/``--bit-flip-plan``.  Whatever they
are given, they must either build the object or raise a
:class:`ValueError` subclass the CLI turns into one line -- never a
``TypeError``, ``KeyError`` or ``OverflowError`` traceback.
"""

import dataclasses
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.plan import BitFlipFault, FaultPlan, OutageFault, \
    StallFault
from repro.scale.policy import AdmissionPolicy, AutoscalePolicy, \
    PriorityClass, ScalePolicy, ScalePolicyError, parse_priority_map

_FUZZ = settings(derandomize=True, deadline=None, max_examples=300)

#: Scalars a JSON document can hold (Python's ``json`` also reads
#: ``NaN`` and ``Infinity``).
_SCALARS = (st.none() | st.booleans()
            | st.integers(min_value=-2**70, max_value=2**70)
            | st.floats() | st.text(max_size=6))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


#: Field values: plausible and edge ones first, then any scalar.
_FIELD = st.sampled_from([0, 1, 2, 3, -1, 0.5, 0.01, 4.0, 1e300,
                          math.inf, -math.inf, math.nan, True, None,
                          "vr", "dma", "stuck", "a"]) | _SCALARS


def _object(cls):
    """JSON objects over any of ``cls``'s fields plus a stray one."""
    return st.fixed_dictionaries({}, optional={
        **{f.name: _FIELD for f in dataclasses.fields(cls)},
        "stray": _FIELD})


def _document(sections):
    """JSON objects whose keys are any of ``sections`` (name -> value
    strategy) plus a stray one."""
    return st.fixed_dictionaries({}, optional={
        **{key: value | _JSON for key, value in sections.items()},
        "stray": _JSON})


@_FUZZ
@given(text=st.text(alphabet="ab =:,.-+0123456789eEinfatyIN", max_size=24)
       | st.text(max_size=12))
def test_priority_map_parses_or_raises_typed(text):
    try:
        classes = parse_priority_map(text)
    except ScalePolicyError:
        return
    assert classes and all(isinstance(c, PriorityClass) for c in classes)
    assert all(math.isfinite(c.share) and c.share > 0 for c in classes)


@_FUZZ
@given(data=_document({
    "autoscale": _object(AutoscalePolicy),
    "admission": _object(AdmissionPolicy),
    "priorities": st.lists(_object(PriorityClass), max_size=3),
}) | _JSON)
def test_scale_policy_from_dict_builds_or_raises_typed(data):
    try:
        policy = ScalePolicy.from_dict(data)
    except ScalePolicyError:
        return
    assert ScalePolicy.from_dict(policy.to_dict()) == policy


@_FUZZ
@given(data=_document({
    "stalls": st.lists(_object(StallFault), max_size=3),
    "outages": st.lists(_object(OutageFault), max_size=3),
    "bit_flips": st.lists(_object(BitFlipFault), max_size=3),
}) | _JSON)
@example(data={"stalls": [{"shard_id": math.inf}]})
@example(data={"bit_flips": [{"shard_id": 0, "t_s": 0.0, "vr": -math.inf}]})
@example(data={"stalls": [{"shard_id": 1.7, "start_s": 0.0,
                           "duration_s": 0.1, "slowdown": 2.0}]})
@example(data={"outages": [{"shard_id": True, "start_s": 0.0}]})
@example(data={"outages": [{"shard_id": "3", "start_s": 0.0}]})
@example(data={"outages": [{"shard_id": 0, "start_s": "0.5"}]})
@example(data={"bit_flips": [{"shard_id": 0, "t_s": 0.0, "target": 1}]})
@example(data={"outages": [{"shard_id": 0, "start_s": 0.0, "stray": 1.0}]})
def test_fault_plan_from_dict_builds_or_raises_typed(data):
    try:
        plan = FaultPlan.from_dict(data)
    except ValueError:
        return
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    # Nothing was coerced or dropped: a built plan read integers for
    # its integer fields, numbers (never a bool or a string) for the
    # rest, and no field its fault type lacks.
    for key, built in plan.to_dict().items():
        for raw, entry in zip(data.get(key, []), built):
            assert "stray" not in raw, raw
            for name, value in raw.items():
                if name in entry:
                    assert not isinstance(value, bool), (name, value)
                    if isinstance(entry[name], int):
                        assert isinstance(value, int), (name, value)
                    assert isinstance(value, str) \
                        == isinstance(entry[name], str), (name, value)
