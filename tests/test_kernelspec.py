"""Tests for the declarative kernel descriptions."""

import json
import math
import re

import numpy as np
import pytest

from bergex import cli, kernelspec
from bergex.kernelspec import (
    MAX_DEGREE,
    ConfigError,
    coeffs_spec,
    describe,
    from_dict,
    power_decay_spec,
    realize,
    to_dict,
)


class TestBuilders:
    def test_coeffs_from_complex(self):
        assert coeffs_spec([1.0, 2.0 + 1.0j]) == {
            "type": "coeffs", "values": [[1.0, 0.0], [2.0, 1.0]]}

    def test_coeffs_from_pairs(self):
        # JSON integers in [re, im] pairs become floats, as solve records
        # them, and unknown keys are dropped
        spec = from_dict({"type": "coeffs", "values": [[1, 0], [0.0, -1]],
                          "note": "dropped"})
        assert spec == {"type": "coeffs",
                        "values": [[1.0, 0.0], [0.0, -1.0]]}
        assert all(isinstance(x, float) for pair in spec["values"]
                   for x in pair)

    def test_power_decay(self):
        assert power_decay_spec(2, 8) == {
            "type": "power_decay", "alpha": 2.0, "count": 8}

    @pytest.mark.parametrize("count", [2.9, True])
    def test_builders_do_not_coerce(self, count):
        with pytest.raises(ConfigError, match="'count'"):
            power_decay_spec(2.0, count)


class TestValidation:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            from_dict({"type": "nonsense"})

    def test_truncate_is_not_a_spec_type(self):
        # a truncation is written with fewer values or a smaller count
        with pytest.raises(ConfigError,
                           match="unknown kernel spec type 'truncate'"):
            from_dict({"type": "truncate", "n": 4,
                       "inner": power_decay_spec(2.0, 16)})

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ValueError):
            from_dict({"type": "coeffs", "values": []})

    def test_coeffs_up_to_max_degree_accepted(self):
        # one more pair is rejected (TestSerialization)
        values = [[1.0, 0.0]] * (MAX_DEGREE + 1)
        assert from_dict({"type": "coeffs", "values": values})["values"] \
            == values

    def test_power_decay_needs_count(self):
        with pytest.raises(ValueError, match="'count'"):
            from_dict({"type": "power_decay", "alpha": 2.0, "count": 0})


class TestRealize:
    def test_coeffs(self):
        k = realize(coeffs_spec([1.0, 2.0j]))
        np.testing.assert_allclose(k.coeffs, [1.0, 2.0j])

    def test_power_decay_values(self):
        k = realize(power_decay_spec(2.0, 4))
        np.testing.assert_allclose(k.coeffs, [1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0])

    def test_coeffs_keep_every_bit(self):
        spec = from_dict({"type": "coeffs",
                          "values": [[-0.0, 0.0], [1.0, -0.0]]})
        k = realize(spec)
        assert math.copysign(1.0, k.coeffs[0].real) == -1.0
        assert math.copysign(1.0, k.coeffs[1].imag) == -1.0
        # repr, and so json, writes every bit of a float, -0.0 included
        assert json.dumps(coeffs_spec(k.coeffs)) == json.dumps(spec)

    def test_zero_realization_rejected(self):
        with pytest.raises(ValueError):
            realize(coeffs_spec([0.0, 0.0]))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_power_decay_rejected(self):
        # 2^1000 is a float and 3^1000 is not: [1, 1.07e301, inf, inf]
        spec = power_decay_spec(-1000.0, 4)
        with pytest.raises(ConfigError, match="alpha=-1000"):
            realize(spec)
        assert realize(power_decay_spec(-1000.0, 2)).coeffs[1] == 2.0 ** 1000


class TestDescribe:
    def test_stable_ids(self):
        assert describe(coeffs_spec([1.0, 2.0])) == "coeffs[2]"
        assert describe(power_decay_spec(2.0, 64)) == \
            "power_decay(alpha=2, count=64)"


class TestSerialization:
    @pytest.mark.parametrize("spec", [
        coeffs_spec([1.0, 2.0 - 1.0j]),
        power_decay_spec(1.6, 12),
    ])
    def test_round_trip(self, spec):
        # a spec is its JSON object, and from_dict keeps a canonical one
        assert to_dict(spec) is spec
        assert from_dict(json.loads(json.dumps(spec))) == spec

    def test_malformed_rejected(self):
        for bad in (
            42,
            {},
            {"type": "coeffs"},
            {"type": "coeffs", "values": [[1.0]]},
            {"type": "coeffs", "values": ["x"]},
            {"type": "coeffs", "values": [[None, 0.0]]},
            {"type": "power_decay", "alpha": 2.0},
        ):
            with pytest.raises(ValueError):
                from_dict(bad)
        # no coercion: each field is a JSON value of its own kind, and the
        # error names it
        for bad, field in (
            ({"type": "power_decay", "alpha": 2.0, "count": 2.9}, "count"),
            ({"type": "power_decay", "alpha": 2.0, "count": True}, "count"),
            ({"type": "power_decay", "alpha": 2.0, "count": "3"}, "count"),
            # past kernelspec.MAX_DEGREE, before any allocation
            ({"type": "power_decay", "alpha": 2.0, "count": 10 ** 15},
             "count"),
            ({"type": "power_decay", "alpha": "2", "count": 3}, "alpha"),
            ({"type": "power_decay", "alpha": True, "count": 3}, "alpha"),
            ({"type": "coeffs", "values": [["1", 0.0]]}, "values"),
            ({"type": "coeffs", "values": [[1.0, 0.0], [1.0, False]]},
             "values"),
            ({"type": "coeffs", "values": [[10 ** 400, 0.0]]}, "values"),
            # a kernel of degree past MAX_DEGREE, as for count
            ({"type": "coeffs", "values": [[1.0, 0.0]] * (MAX_DEGREE + 2)},
             "values"),
            ({"type": 3}, "type"),
        ):
            with pytest.raises(ValueError, match=re.escape(repr(field))):
                from_dict(bad)

    @pytest.mark.parametrize("bad", [True, 10 ** 400, "1", None])
    def test_one_bad_number_among_many_pairs_rejected(self, bad):
        # 353 pairs, a kernel's values or a degree-352 solution's
        # coefficients: the valid list reads back bit for bit, and one bad
        # number at index 300 rejects it, naming the field
        values = np.random.default_rng(353).standard_normal((353, 2)).tolist()
        values[7] = [-0.0, 2 ** 60]
        spec = from_dict({"type": "coeffs", "values": values})
        expected = np.array(values, dtype=float)
        assert np.array(spec["values"]).tobytes() == expected.tobytes()
        assert all(type(x) is float for pair in spec["values"] for x in pair)
        pairs = kernelspec._pairs_field({"values": values}, "values", 353)
        assert pairs.dtype == np.float64 and pairs.shape == (353, 2)
        assert pairs.tobytes() == expected.tobytes()
        read = cli._read_coefficients({"coefficients": values}, 352)
        assert read.tobytes() == expected.tobytes()
        values[300] = [values[300][0], bad]
        message = ("config field {!r} is invalid: need a non-empty list of "
                   "at most {} [re, im] pairs of finite numbers")
        with pytest.raises(ConfigError) as exc_info:
            from_dict({"type": "coeffs", "values": values})
        assert str(exc_info.value) == message.format("values", MAX_DEGREE + 1)
        with pytest.raises(ConfigError) as exc_info:
            cli._read_coefficients({"coefficients": values}, 352)
        assert str(exc_info.value) == message.format("coefficients", 353)

    @pytest.mark.parametrize("bad", [
        {"type": "coeffs", "values": [[float("nan"), 0.0], [1.0, 0.0]]},
        {"type": "coeffs", "values": [[1.0, float("inf")]]},
        {"type": "coeffs", "values": [[-float("inf"), 0.0]]},
        {"type": "power_decay", "alpha": float("inf"), "count": 4},
        {"type": "power_decay", "alpha": float("nan"), "count": 4},
        {"type": "power_decay", "alpha": 2.0, "count": float("inf")},
    ])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            from_dict(bad)

    def test_dict_shape(self):
        data = to_dict(coeffs_spec([1.0 + 2.0j]))
        assert data == {"type": "coeffs", "values": [[1.0, 2.0]]}
