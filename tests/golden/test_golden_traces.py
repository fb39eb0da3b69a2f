"""Golden-trace regression harness over the registered scenario matrix.

Every scenario in :mod:`repro.scenarios.registry` is pinned to a checked-in
fingerprint under ``traces/``: the simulator is deterministic given the spec's
seed, so any behavioural drift — an engine change that reorders events, a
detection-threshold tweak, a refactor that loses an action — shows up as a
byte-level diff against the golden trace.

Regenerate traces *deliberately* after an intended behaviour change with::

    make golden-update

and review the diff like any other code change.

The same runs pin each scenario's work in ``costs.json``: physical heap pops
and logical events with coalescing on.  A change that makes the simulator do
more (or less) work shows up there as a reviewed diff beside the traces.
Physical pops differ between coalescing modes, so the rows are compared
only with coalescing on (not under ``REPRO_NO_COALESCE=1``); ``make
golden-update`` rewrites the rows too.  Logical events count per-request
semantics, so a second test steps every scenario with coalescing off and
holds its logical count to the same column.
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


def _load_costs(costs_path):
    return json.loads(costs_path.read_text()) if costs_path.exists() else {}


@pytest.mark.parametrize("name", _params())
def test_scenario_matches_golden_trace(name, trace_dir, costs_path):
    spec = get_scenario(name)
    result = simulate_spec(spec)
    assert result.run.completed, f"scenario {name!r} no longer completes"
    path = trace_dir / f"{name}.json"
    assert path.exists(), (
        f"no golden trace for scenario {name!r}; generate it with "
        f"'make golden-update' and commit the file"
    )
    assert path.read_text() == result.golden_trace(), (
        f"scenario {name!r} diverged from its golden trace; if the behaviour "
        f"change is intended, regenerate with 'make golden-update' and review "
        f"the diff"
    )
    if result.job.env.coalesce:
        cost = {"physical": result.run.engine_events_physical,
                "logical": result.run.engine_events_processed}
        assert _load_costs(costs_path).get(name) == cost, (
            f"scenario {name!r} changed its work counts (physical heap pops, "
            f"logical events); if intended, regenerate with 'make "
            f"golden-update' and review the costs.json diff"
        )


#: Registered scenarios whose uncoalesced logical count still differs from
#: the coalesced one, pinned exactly at the uncoalesced value.
_UNCOALESCED_LOGICAL = {
    "elastic-server-retire-replace": 3668,
    "serving-promotion-burst": 24044,
}


@pytest.mark.parametrize("name", _params())
def test_uncoalesced_logical_events_match_the_cost_column(name, costs_path):
    """Stepping every request (coalescing off) counts the logical events
    ``costs.json`` pins for the coalesced run, bar the known gaps above."""
    result = simulate_spec(get_scenario(name), coalesce=False)
    expected = _UNCOALESCED_LOGICAL.get(
        name, _load_costs(costs_path).get(name, {}).get("logical"))
    assert result.run.engine_events_processed == expected, (
        f"scenario {name!r} counts different logical events with coalescing "
        f"off than its costs.json row")


def test_no_stale_golden_traces(trace_dir, costs_path):
    """Every checked-in trace and cost row must name a registered scenario."""
    registered = set(SCENARIOS)
    stale = {path.stem for path in trace_dir.glob("*.json")} - registered
    assert not stale, f"golden traces without a registered scenario: {sorted(stale)}"
    stale = set(_load_costs(costs_path)) - registered
    assert not stale, f"cost rows without a registered scenario: {sorted(stale)}"


def test_golden_traces_are_canonical(trace_dir, costs_path):
    """Traces must stay in the canonical byte form (sorted keys, 2-space indent)."""
    for path in [*sorted(trace_dir.glob("*.json")), costs_path]:
        payload = json.loads(path.read_text())
        assert canonical_json(payload) == path.read_text(), (
            f"{path.name} is not in canonical form; regenerate with "
            f"'make golden-update'"
        )


def test_rerun_is_byte_identical():
    """Determinism guard: the same spec fingerprints identically twice in-process."""
    for name in ("nd-persistent-worker", "eviction-storm"):
        spec = get_scenario(name)
        first = simulate_spec(spec).golden_trace()
        second = simulate_spec(spec).golden_trace()
        assert first == second
