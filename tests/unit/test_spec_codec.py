"""The spec codec: every field is serialized, and no unknown key is dropped.

The hypothesis suites in ``tests/property/test_scenario_roundtrip.py`` prove
the round trip lossless; these tests pin the two properties a round trip
cannot see — that the dict form names every dataclass field at every
nesting level, and that ``from_dict`` rejects a key no field matches.
"""

import dataclasses

import pytest

from repro.codec import SpecCodec
from repro.elastic.spec import ElasticSpec, ServerElasticSpec
from repro.scenarios import ScenarioSpec
from repro.scenarios.registry import all_scenarios
from repro.serving.spec import SERVING_PRESETS


def _missing_fields(spec, data, path):
    """Fields of ``spec`` and of its nested specs that ``data`` lacks."""
    missing = []
    for spec_field in dataclasses.fields(spec):
        where = f"{path}.{spec_field.name}"
        if spec_field.name not in data:
            missing.append(where)
            continue
        value = getattr(spec, spec_field.name)
        if isinstance(value, SpecCodec):
            missing += _missing_fields(value, data[spec_field.name], where)
        elif isinstance(value, tuple):
            for index, item in enumerate(value):
                if isinstance(item, SpecCodec):
                    missing += _missing_fields(
                        item, data[spec_field.name][index], f"{where}[{index}]")
    return missing


def test_registered_spec_dicts_carry_every_field():
    for spec in all_scenarios():
        assert _missing_fields(spec, spec.to_dict(), spec.name) == []


_NESTED = ScenarioSpec(
    name="codec-unknown-key",
    elastic=ElasticSpec(servers=ServerElasticSpec(replicas=1)),
    serving=SERVING_PRESETS["steady"],
)


@pytest.mark.parametrize("path", [(), ("elastic", "servers"),
                                  ("serving", "tenants", 0)],
                         ids=["top-level", "elastic.servers", "serving.tenants"])
def test_unknown_key_is_rejected(path):
    data = _NESTED.to_dict()
    assert ScenarioSpec.from_dict(data) == _NESTED
    target = data
    for step in path:
        target = target[step]
    target["unknown_knob"] = 1
    with pytest.raises(TypeError, match="unknown_knob"):
        ScenarioSpec.from_dict(data)
