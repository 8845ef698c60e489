"""Scale-policy validation and JSON round-tripping."""

import dataclasses

import pytest

from repro.scale import (
    DEFAULT_PRIORITY_CLASSES,
    AdmissionPolicy,
    AdmissionPolicyError,
    AutoscalePolicy,
    PoolBoundsError,
    PriorityClass,
    PriorityMapError,
    ScalePolicy,
    ScalePolicyError,
    parse_priority_map,
)


class TestAutoscalePolicy:
    def test_defaults_validate(self):
        policy = AutoscalePolicy()
        assert policy.min_shards <= policy.max_shards
        assert policy.error_budget == pytest.approx(1.0 - policy.slo_target)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(PoolBoundsError):
            AutoscalePolicy(min_shards=6, max_shards=2)

    @pytest.mark.parametrize("field,value", [
        ("min_shards", 0),
        ("min_shards", 1.5),
        ("max_shards", "8"),
        ("control_interval_s", 0.0),
        ("control_interval_s", float("inf")),
        ("slo_target", 0.0),
        ("slo_target", 1.0),
        ("scale_up_burn", 0.0),
        ("scale_down_burn", -0.1),
        ("scale_down_burn", 1.0),  # >= scale_up_burn
        ("scale_up_step", 0),
        ("cooldown_s", -1.0),
    ])
    def test_out_of_domain_rejected(self, field, value):
        with pytest.raises(ScalePolicyError):
            AutoscalePolicy(**{field: value})

    def test_pool_bounds_error_is_typed(self):
        assert issubclass(PoolBoundsError, ScalePolicyError)
        assert issubclass(ScalePolicyError, ValueError)


class TestAdmissionPolicy:
    @pytest.mark.parametrize("depth", [0.0, -1.0, float("nan")])
    def test_non_positive_threshold_rejected(self, depth):
        with pytest.raises(AdmissionPolicyError):
            AdmissionPolicy(shed_queue_batches=depth)


class TestPriorityClasses:
    def test_empty_name_rejected(self):
        with pytest.raises(PriorityMapError):
            PriorityClass(name="", share=1.0)

    @pytest.mark.parametrize("share", [0.0, -0.5])
    def test_non_positive_share_rejected(self, share):
        with pytest.raises(PriorityMapError):
            PriorityClass(name="x", share=share)

    def test_empty_priority_map_rejected(self):
        with pytest.raises(PriorityMapError):
            ScalePolicy(priorities=())
        with pytest.raises(PriorityMapError):
            parse_priority_map("")

    def test_duplicate_names_rejected(self):
        with pytest.raises(PriorityMapError):
            ScalePolicy(priorities=(
                PriorityClass("a", 0.5), PriorityClass("a", 0.5)))

    def test_parse_priority_map(self):
        classes = parse_priority_map("interactive=0.8,batch=0.2:0.25")
        assert classes == DEFAULT_PRIORITY_CLASSES
        with pytest.raises(PriorityMapError):
            parse_priority_map("no-equals-sign")
        with pytest.raises(PriorityMapError):
            parse_priority_map("a=not-a-number")

    def test_shares_normalize(self):
        policy = ScalePolicy(priorities=(
            PriorityClass("a", 3.0), PriorityClass("b", 1.0)))
        assert policy.shares == (0.75, 0.25)


class TestJsonRoundTrip:
    def test_dict_round_trip(self):
        policy = ScalePolicy(
            autoscale=AutoscalePolicy(min_shards=1, max_shards=4,
                                      scale_up_step=1),
            admission=AdmissionPolicy(shed_queue_batches=2.5),
            priorities=(PriorityClass("rt", 0.9, 2.0),
                        PriorityClass("bg", 0.1, 0.1)),
        )
        assert ScalePolicy.from_dict(policy.to_dict()) == policy

    def test_file_round_trip(self, tmp_path):
        policy = ScalePolicy()
        path = policy.dump(str(tmp_path / "policy.json"))
        assert ScalePolicy.load(path) == policy

    def test_unknown_section_rejected(self):
        with pytest.raises(ScalePolicyError):
            ScalePolicy.from_dict({"autoscale": {}, "turbo": True})

    def test_unknown_field_rejected(self):
        with pytest.raises(ScalePolicyError):
            ScalePolicy.from_dict({"autoscale": {"warp_factor": 9}})

    def test_malformed_priorities_rejected(self):
        with pytest.raises(PriorityMapError):
            ScalePolicy.from_dict({"priorities": {"name": "a"}})
        with pytest.raises(PriorityMapError):
            ScalePolicy.from_dict({"priorities": [{"nom": "a"}]})

    @pytest.mark.parametrize("data, error, message", [
        ({"autoscale": None}, ScalePolicyError,
         "autoscale must be an object, got null"),
        ({"admission": 3}, AdmissionPolicyError,
         "admission must be an object, got int"),
        ({"priorities": [None]}, PriorityMapError,
         r"priorities\[0\] must be an object, got null"),
        ({"autoscale": {"bogus": 1}}, ScalePolicyError,
         "autoscale: unknown field 'bogus'"),
        ({"admission": {"shed_queue_batches": "4"}}, AdmissionPolicyError,
         "admission: field 'shed_queue_batches' must be a number, got '4'"),
        ({"autoscale": {"slo_target": True}}, ScalePolicyError,
         "autoscale: field 'slo_target' must be a number, got True"),
        ({"priorities": [{"name": "a", "share": 1}, {"name": "b"}]},
         PriorityMapError, r"priorities\[1\]: missing field 'share'"),
        ({"priorities": [{"name": 3, "share": 1}]}, PriorityMapError,
         r"priorities\[0\]: field 'name' must be a string, got 3"),
    ])
    def test_malformed_section_names_section_and_field(self, data, error,
                                                        message):
        with pytest.raises(error, match=f"^{message}$"):
            ScalePolicy.from_dict(data)

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScalePolicyError):
            ScalePolicy.load(str(path))

    def test_example_policy_file_loads(self):
        import pathlib

        example = pathlib.Path(__file__).parents[2] \
            / "examples" / "autoscale_policy.json"
        policy = ScalePolicy.load(str(example))
        assert policy.autoscale.max_shards == 6
        assert [cls.name for cls in policy.priorities] \
            == ["interactive", "batch"]

    def test_policy_replace_keeps_validation(self):
        policy = ScalePolicy()
        with pytest.raises(PriorityMapError):
            dataclasses.replace(policy, priorities=())
