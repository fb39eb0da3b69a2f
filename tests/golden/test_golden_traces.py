"""Golden-trace regression harness over the registered scenario matrix.

Every scenario in :mod:`repro.scenarios.registry` is pinned to a checked-in
fingerprint under ``traces/``: the simulator is deterministic given the spec's
seed, so any behavioural drift — an engine change that reorders events, a
detection-threshold tweak, a refactor that loses an action — shows up as a
byte-level diff against the golden trace.

Regenerate traces *deliberately* after an intended behaviour change with::

    pytest tests/golden --update-golden        # or: make golden-update

and review the diff like any other code change.
"""

import json

import pytest

from repro.orchestrator import simulate_spec
from repro.scenarios import all_scenarios, canonical_json, get_scenario
from repro.scenarios.registry import SCENARIOS

_SPECS = all_scenarios()


def _params():
    return [
        pytest.param(spec.name, marks=(pytest.mark.slow,) if "slow" in spec.tags else (),
                     id=spec.name)
        for spec in _SPECS
    ]


def test_registry_has_full_matrix():
    """The built-in catalogue must keep covering the paper's operating matrix."""
    assert len(_SPECS) >= 12
    tags = {tag for spec in _SPECS for tag in spec.tags}
    # Dedicated + non-dedicated clusters, transient + persistent stragglers,
    # failure traces (eviction storm, checkpoint-free failover), heterogeneous
    # hardware, and a large-scale point must all stay represented.
    for required in ("dedicated", "non-dedicated", "transient", "persistent",
                     "failures", "eviction", "checkpoint", "hetero", "scale"):
        assert required in tags, f"the scenario matrix lost its {required!r} coverage"
    workers = max(spec.resolve_scale().num_workers for spec in _SPECS)
    assert workers >= 120, "the matrix must keep a >=120-worker scale point"


@pytest.mark.parametrize("name", _params())
def test_scenario_matches_golden_trace(name, update_golden, trace_dir):
    spec = get_scenario(name)
    result = simulate_spec(spec)
    assert result.run.completed, f"scenario {name!r} no longer completes"
    text = result.golden_trace()
    path = trace_dir / f"{name}.json"
    if update_golden:
        path.write_text(text)
        return
    assert path.exists(), (
        f"no golden trace for scenario {name!r}; generate it with "
        f"'pytest tests/golden --update-golden' and commit the file"
    )
    stored = path.read_text()
    assert stored == text, (
        f"scenario {name!r} diverged from its golden trace; if the behaviour "
        f"change is intended, regenerate with 'pytest tests/golden --update-golden' "
        f"and review the diff"
    )


def test_no_stale_golden_traces(trace_dir):
    """Every checked-in trace must correspond to a registered scenario."""
    stored = {path.stem for path in trace_dir.glob("*.json")}
    registered = set(SCENARIOS)
    stale = stored - registered
    assert not stale, f"golden traces without a registered scenario: {sorted(stale)}"


def test_golden_traces_are_canonical(trace_dir):
    """Traces must stay in the canonical byte form (sorted keys, 2-space indent)."""
    for path in sorted(trace_dir.glob("*.json")):
        payload = json.loads(path.read_text())
        assert canonical_json(payload) == path.read_text(), (
            f"{path.name} is not in canonical form; regenerate with --update-golden"
        )


def test_rerun_is_byte_identical():
    """Determinism guard: the same spec fingerprints identically twice in-process."""
    for name in ("nd-persistent-worker", "eviction-storm"):
        spec = get_scenario(name)
        first = simulate_spec(spec).golden_trace()
        second = simulate_spec(spec).golden_trace()
        assert first == second
