"""Unit tests for the declarative spec layer (model, build, reducers).

The spec layer's contract: every scenario class is in the registry,
every RunSpec round-trips losslessly through JSON, the digest is a
stable content address, and ``build``/``execute`` assemble exactly the
cluster a hand-wired experiment would.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import channels as channels_module
from repro.faults import processes as processes_module
from repro.faults import scenarios as scenarios_module
from repro.faults.scenarios import SerializableScenario
from repro.spec import (
    PROVENANCE_PREFIX,
    RUNSPEC_SCHEMA,
    SCENARIO_REGISTRY,
    ClusterSpec,
    ProtocolSpec,
    RunSpec,
    ScenarioSpec,
    ScheduleSpec,
    SummaryReducer,
    VariantSpec,
    build,
    execute,
    registered_reducers,
    resolve_reducer,
    run_spec_dict,
    strip_provenance,
)
from repro.core.service import (
    DiagnosedCluster,
    LowLatencyCluster,
    MembershipCluster,
)
from repro.obs import MetricsRegistry


def _protocol(n_nodes=4):
    return ProtocolSpec(n_nodes=n_nodes, penalty_threshold=3,
                        reward_threshold=50,
                        criticalities=(1,) * n_nodes)


class TestScenarioRegistry:
    def test_covers_every_serializable_scenario_class(self):
        expected = set()
        for module in (scenarios_module, processes_module, channels_module):
            for name, obj in vars(module).items():
                if (isinstance(obj, type)
                        and issubclass(obj, SerializableScenario)
                        and obj.__module__ == module.__name__
                        and hasattr(obj, "directives")):
                    expected.add(name)
        assert set(SCENARIO_REGISTRY) == expected
        assert expected  # the registry is not trivially empty

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario type"):
            ScenarioSpec("NoSuchScenario", {})


class TestSpecValidation:
    def test_protocol_spec_round_trips_config(self):
        from repro.core.config import CriticalityClass, automotive_config

        config = automotive_config([CriticalityClass.SC] * 4)
        spec = ProtocolSpec.from_config(config)
        assert spec.to_config() == config

    def test_bad_isolation_mode_rejected(self):
        with pytest.raises(ValueError):
            ProtocolSpec(n_nodes=4, penalty_threshold=3, reward_threshold=50,
                         criticalities=(1, 1, 1, 1), isolation_mode="bogus")

    def test_cluster_spec_range_checks(self):
        with pytest.raises(ValueError):
            ClusterSpec(round_length=0)
        with pytest.raises(ValueError):
            ClusterSpec(tx_fraction=1.0)
        with pytest.raises(ValueError):
            ClusterSpec(n_channels=0)

    def test_schedule_spec_static_requires_exec_after(self):
        with pytest.raises(ValueError):
            ScheduleSpec(kind="static")
        with pytest.raises(ValueError):
            ScheduleSpec(kind="default", exec_after=2)
        assert ScheduleSpec(kind="static", exec_after=[1, 2, 3, 0]
                            ).exec_after == (1, 2, 3, 0)

    def test_variant_spec_constraints(self):
        with pytest.raises(ValueError):
            VariantSpec(service="nope")
        with pytest.raises(ValueError):
            VariantSpec(service="diagnostic", lowlatency_membership=True)
        with pytest.raises(ValueError):
            VariantSpec(service="lowlatency", byzantine_nodes=(2,))

    def test_lowlatency_rejects_non_default_schedule(self):
        with pytest.raises(ValueError):
            RunSpec(protocol=_protocol(),
                    schedule=ScheduleSpec(kind="dynamic"),
                    variant=VariantSpec(service="lowlatency"))

    def test_unknown_field_rejected(self):
        data = RunSpec(protocol=_protocol()).to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown RunSpec fields"):
            RunSpec.from_dict(data)

    def test_unknown_schema_rejected(self):
        data = RunSpec(protocol=_protocol()).to_dict()
        data["spec"] = "repro-runspec/99"
        with pytest.raises(ValueError, match="unsupported spec schema"):
            RunSpec.from_dict(data)

    @pytest.mark.parametrize("section, edit, message", [
        ("variant", lambda d: d.update(surprise=1),
         r"unknown RunSpec\.variant fields \['surprise'\]"),
        ("cluster", lambda d: d.update(bogus=1),
         r"unknown RunSpec\.cluster fields \['bogus'\]"),
        ("protocol", lambda d: d.pop("n_nodes"),
         r"missing RunSpec\.protocol fields \['n_nodes'\]"),
        ("schedule", lambda d: d.update(when=3),
         r"unknown RunSpec\.schedule fields \['when'\]"),
    ])
    def test_bad_nested_field_is_a_named_value_error(self, section, edit,
                                                     message):
        data = RunSpec(protocol=_protocol()).to_dict()
        edit(data[section])
        with pytest.raises(ValueError, match=message):
            RunSpec.from_dict(data)

    def test_bad_scenario_and_section_shapes_are_value_errors(self):
        data = RunSpec(protocol=_protocol()).to_dict()
        data["scenarios"] = [{"type": "SlotBurst", "prams": {}}]
        with pytest.raises(ValueError,
                           match=r"unknown RunSpec\.scenarios\[0\] fields"):
            RunSpec.from_dict(data)
        data = RunSpec(protocol=_protocol()).to_dict()
        del data["protocol"]
        with pytest.raises(ValueError,
                           match=r"missing RunSpec fields \['protocol'\]"):
            RunSpec.from_dict(data)
        for section in ("cluster", "variant"):
            data = RunSpec(protocol=_protocol()).to_dict()
            data[section] = 3
            with pytest.raises(ValueError, match=f"RunSpec.{section} must"):
                RunSpec.from_dict(data)

    @pytest.mark.parametrize("field", ["bitset", "fast_path"])
    @pytest.mark.parametrize("value", [False, "no", 1, None])
    def test_removed_strategy_field_rejects_other_values(self, field, value):
        data = RunSpec(protocol=_protocol()).to_dict()
        data["variant"][field] = value
        with pytest.raises(ValueError,
                           match=f"RunSpec.variant.{field} .*was removed"):
            RunSpec.from_dict(data)

    def test_removed_strategy_fields_accepted_at_their_only_value(self):
        spec = RunSpec(protocol=_protocol(), n_rounds=4)
        data = spec.to_dict()
        assert "bitset" not in data["variant"]
        assert "fast_path" not in data["variant"]
        data["variant"].update(bitset=True, fast_path=True)
        assert RunSpec.from_dict(data) == spec

    def test_digest_still_hashes_the_removed_fields(self):
        """Digests predating the removal stay valid: the two fields are
        hashed at their only value."""
        import hashlib

        spec = RunSpec(protocol=_protocol(), n_rounds=4)
        data = spec.to_dict()
        data["variant"].update(bitset=True, fast_path=True)
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        assert spec.full_digest() == hashlib.sha256(
            canonical.encode("utf-8")).hexdigest()


def _variant_matrix():
    variants = []
    for service in ("diagnostic", "membership"):
        for byzantine in ((), (1,), (3,), (1, 2, 3)):
            variants.append(VariantSpec(service=service,
                                        byzantine_nodes=byzantine))
    variants.append(VariantSpec(service="lowlatency"))
    variants.append(VariantSpec(service="lowlatency",
                                lowlatency_membership=True))
    variants.append(VariantSpec(service="diagnostic",
                                byzantine_nodes=(2, 4)))
    return variants


def _scenario_matrix():
    return [
        (),
        (ScenarioSpec("SlotBurst", {"round_index": 6, "slot": 2,
                                    "n_slots": 2}),),
        (ScenarioSpec("BusBurst", {"start": 0.015, "duration": 0.005,
                                   "cause": "noise", "min_overlap": 0.1}),
         ScenarioSpec("SenderFault", {"sender": 3, "kind": "benign",
                                      "rounds": [4, 6, 8]})),
        (ScenarioSpec("SenderFault", {"sender": 1, "kind": "benign",
                                      "from_round": 5}),),
        (ScenarioSpec("RandomSlotNoise", {"probability": 0.05,
                                          "rng_stream": "noise"}),),
        (ScenarioSpec("PoissonTransients", {"rate": 2.0,
                                            "burst_length": 0.002,
                                            "rng_stream": "transients"}),),
        (ScenarioSpec("IntermittentSender",
                      {"sender": 2, "mean_reappearance_rounds": 8.0,
                       "rng_stream": "intermittent"}),),
        (ScenarioSpec("PeriodicBurst", {"start": 0.01, "burst_length": 0.01,
                                        "time_to_reappearance": 0.5,
                                        "count": 3}),),
        (ScenarioSpec("BurstSequence",
                      {"start": 0.0,
                       "pattern": [[0.0, 0.04], [0.16, 0.04]]}),),
        (ScenarioSpec("ChannelBurst", {"channel": 0, "start": 0.01,
                                       "duration": 0.004}),),
    ]


class TestRunSpecRoundTrip:
    @pytest.mark.parametrize("variant", _variant_matrix())
    def test_variant_matrix_round_trips(self, variant):
        spec = RunSpec(protocol=_protocol(), variant=variant, n_rounds=10)
        assert RunSpec.from_json(spec.to_json()) == spec
        assert RunSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("scenarios", _scenario_matrix())
    def test_scenario_matrix_round_trips(self, scenarios):
        spec = RunSpec(protocol=_protocol(), scenarios=scenarios,
                       n_rounds=12, reducer="summary")
        rebuilt = RunSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.digest() == spec.digest()

    @pytest.mark.parametrize("schedule", [
        ScheduleSpec(),
        ScheduleSpec(kind="static", exec_after=2),
        ScheduleSpec(kind="static", exec_after=(1, 2, 3, 0)),
        ScheduleSpec(kind="dynamic"),
    ])
    def test_schedule_round_trips(self, schedule):
        spec = RunSpec(protocol=_protocol(), schedule=schedule, n_rounds=5)
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_to_dict_is_json_native(self):
        spec = RunSpec(protocol=_protocol(),
                       scenarios=(ScenarioSpec("SlotBurst",
                                               {"round_index": 6, "slot": 1,
                                                "n_slots": 1}),),
                       n_rounds=10)
        data = spec.to_dict()
        assert data == json.loads(json.dumps(data))
        assert data["spec"] == RUNSPEC_SCHEMA

    @settings(max_examples=30, deadline=None)
    @given(n_nodes=st.integers(2, 6), seed=st.integers(0, 2 ** 31),
           penalty=st.integers(1, 10 ** 6), reward=st.integers(1, 10 ** 6),
           rounds=st.integers(0, 200), channels=st.integers(1, 3),
           trace_level=st.integers(0, 2))
    def test_random_specs_round_trip(self, n_nodes, seed, penalty, reward,
                                     rounds, channels, trace_level):
        spec = RunSpec(
            protocol=ProtocolSpec(n_nodes=n_nodes, penalty_threshold=penalty,
                                  reward_threshold=reward,
                                  criticalities=(1,) * n_nodes),
            cluster=ClusterSpec(seed=seed, n_channels=channels,
                                trace_level=trace_level),
            n_rounds=rounds,
        )
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_digest_stable_and_content_addressed(self):
        a = RunSpec(protocol=_protocol(), n_rounds=10)
        b = RunSpec(protocol=_protocol(), n_rounds=10)
        c = a.with_updates(n_rounds=11)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert len(a.digest()) == 12

    def test_full_digest_is_untruncated_sha256(self):
        spec = RunSpec(protocol=_protocol(), n_rounds=10)
        full = spec.full_digest()
        assert len(full) == 64
        assert all(ch in "0123456789abcdef" for ch in full)
        assert spec.digest() == full[:12]

    def test_full_digest_separates_near_collisions(self):
        # A sweep of near-identical specs must map to distinct full
        # digests: the store keys on full_digest(), so any collision
        # would silently replay the wrong cached result.
        specs = [RunSpec(protocol=_protocol(),
                         cluster=ClusterSpec(seed=seed),
                         n_rounds=rounds)
                 for seed in range(20) for rounds in (8, 9)]
        digests = {spec.full_digest() for spec in specs}
        assert len(digests) == len(specs)


class TestBuild:
    def test_builds_each_service_class(self):
        assert isinstance(
            build(RunSpec(protocol=_protocol())), DiagnosedCluster)
        assert isinstance(
            build(RunSpec(protocol=_protocol(),
                          variant=VariantSpec(service="membership"))),
            MembershipCluster)
        assert isinstance(
            build(RunSpec(protocol=_protocol(),
                          variant=VariantSpec(service="lowlatency"))),
            LowLatencyCluster)

    def test_scenarios_are_attached_and_bound(self):
        spec = RunSpec(
            protocol=_protocol(),
            scenarios=(ScenarioSpec("SlotBurst", {"round_index": 6,
                                                  "slot": 2, "n_slots": 1}),),
            n_rounds=15)
        dc = build(spec)
        scenario = dc.cluster.injection.scenarios[0]
        assert scenario.round_index == 6
        assert scenario.start == dc.cluster.timebase.slot_start(6, 2)
        dc.run_rounds(spec.n_rounds)
        assert dc.health_vectors(1)[6] == (1, 0, 1, 1)

    def test_stochastic_scenario_uses_named_stream(self):
        spec = RunSpec(
            protocol=_protocol(),
            scenarios=(ScenarioSpec("RandomSlotNoise",
                                    {"probability": 0.5,
                                     "rng_stream": "noise"}),),
            n_rounds=8)
        dc = build(spec)
        reference = DiagnosedCluster(_protocol().to_config(), seed=0)
        from repro.faults.processes import RandomSlotNoise

        reference.cluster.add_scenario(RandomSlotNoise(
            probability=0.5, rng=reference.cluster.streams.stream("noise")))
        dc.run_rounds(spec.n_rounds)
        reference.run_rounds(spec.n_rounds)
        assert (dc.health_vectors(1) == reference.health_vectors(1))

    def test_static_schedule_applied(self):
        spec = RunSpec(protocol=_protocol(),
                       schedule=ScheduleSpec(kind="static", exec_after=2),
                       n_rounds=6)
        dc = build(spec)
        reference = DiagnosedCluster(_protocol().to_config(), seed=0,
                                     exec_after=2)
        dc.run_rounds(6)
        reference.run_rounds(6)
        assert dc.health_vectors(1) == reference.health_vectors(1)


class TestExecuteAndReducers:
    def test_default_reducer_summary(self):
        spec = RunSpec(protocol=_protocol(), n_rounds=10)
        result = execute(spec)
        assert result["digest"] == spec.digest()
        assert result["rounds"] == 10
        assert result["consistent"] is True

    def test_named_reducers_registered(self):
        names = set(registered_reducers())
        assert {"summary", "validation.burst", "validation.penalty-reward",
                "validation.malicious", "validation.clique",
                "table2.penalty-budget"} <= names

    def test_resolve_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown reducer"):
            resolve_reducer("no.such.reducer")

    def test_resolve_passes_through_objects(self):
        reducer = SummaryReducer()
        assert resolve_reducer(reducer) is reducer
        with pytest.raises(TypeError):
            resolve_reducer(object())

    def test_provenance_counter_stamped(self):
        spec = RunSpec(protocol=_protocol(), n_rounds=5)
        registry = MetricsRegistry()
        execute(spec, metrics=registry)
        snapshot = registry.snapshot()
        assert snapshot["counters"][PROVENANCE_PREFIX + spec.digest()] == 1
        stripped = strip_provenance(snapshot)
        assert not any(name.startswith(PROVENANCE_PREFIX)
                       for name in stripped["counters"])
        assert any(not name.startswith(PROVENANCE_PREFIX)
                   for name in snapshot["counters"])

    def test_run_spec_dict_matches_execute(self):
        spec = RunSpec(protocol=_protocol(), n_rounds=8)
        assert run_spec_dict(spec.to_dict()) == execute(spec)

    def test_run_spec_dict_collects_metrics(self):
        spec = RunSpec(protocol=_protocol(), n_rounds=8)
        result, snapshot = run_spec_dict(spec.to_dict(),
                                         collect_metrics=True)
        assert result == execute(spec)
        assert snapshot["counters"][PROVENANCE_PREFIX + spec.digest()] == 1

    def test_run_spec_dict_rejects_mismatched_schema(self):
        data = RunSpec(protocol=_protocol(), n_rounds=8).to_dict()
        data["spec"] = "repro-runspec/99"
        with pytest.raises(ValueError) as excinfo:
            run_spec_dict(data)
        # The error must name both the offending and the expected
        # schema so a user can tell which side is out of date.
        message = str(excinfo.value)
        assert "repro-runspec/99" in message
        assert RUNSPEC_SCHEMA in message
