"""Tests for the declarative kernel descriptions."""

import re

import numpy as np
import pytest

from bergex.kernelspec import (
    KernelSpec,
    coeffs_spec,
    describe,
    from_dict,
    power_decay_spec,
    realize,
    to_dict,
    truncate_spec,
)


class TestBuilders:
    def test_coeffs_from_complex(self):
        spec = coeffs_spec([1.0, 2.0 + 1.0j])
        assert spec.type == "coeffs"
        assert spec.values == ((1.0, 0.0), (2.0, 1.0))

    def test_coeffs_from_pairs(self):
        spec = coeffs_spec([(1.0, 0.0), [0.0, -1.0]])
        assert spec.values == ((1.0, 0.0), (0.0, -1.0))

    def test_power_decay(self):
        spec = power_decay_spec(2.0, 8)
        assert spec.alpha == 2.0
        assert spec.count == 8

    def test_truncate_wraps(self):
        inner = power_decay_spec(2.0, 16)
        spec = truncate_spec(inner, 4)
        assert spec.inner is inner
        assert spec.n == 4


class TestValidation:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(type="mystery")

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(type="coeffs", values=())

    def test_power_decay_needs_count(self):
        with pytest.raises(ValueError):
            KernelSpec(type="power_decay", alpha=2.0, count=0)

    def test_truncate_needs_inner(self):
        with pytest.raises(ValueError):
            KernelSpec(type="truncate", n=4)


class TestRealize:
    def test_coeffs(self):
        k = realize(coeffs_spec([1.0, 2.0j]))
        np.testing.assert_allclose(k.coeffs, [1.0, 2.0j])

    def test_power_decay_values(self):
        k = realize(power_decay_spec(2.0, 4))
        np.testing.assert_allclose(k.coeffs, [1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0])

    def test_truncate(self):
        k = realize(truncate_spec(power_decay_spec(1.0, 8), 2))
        assert k.degree == 2

    def test_zero_realization_rejected(self):
        with pytest.raises(ValueError):
            realize(coeffs_spec([(0.0, 0.0), (0.0, 0.0)]))


class TestDescribe:
    def test_stable_ids(self):
        assert describe(coeffs_spec([1.0, 2.0])) == "coeffs[2]"
        assert describe(power_decay_spec(2.0, 64)) == \
            "power_decay(alpha=2, count=64)"
        nested = truncate_spec(power_decay_spec(1.6, 32), 8)
        assert describe(nested) == \
            "truncate(power_decay(alpha=1.6, count=32), n=8)"


class TestSerialization:
    @pytest.mark.parametrize("spec", [
        coeffs_spec([1.0, 2.0 - 1.0j]),
        power_decay_spec(1.6, 12),
        truncate_spec(coeffs_spec([1.0, 0.5, 0.25]), 1),
    ])
    def test_round_trip(self, spec):
        assert from_dict(to_dict(spec)) == spec

    def test_malformed_rejected(self):
        for bad in (
            42,
            {},
            {"type": "coeffs"},
            {"type": "coeffs", "values": []},
            {"type": "coeffs", "values": [[1.0]]},
            {"type": "coeffs", "values": ["x"]},
            {"type": "coeffs", "values": [[None, 0.0]]},
            {"type": "power_decay", "alpha": 2.0},
            {"type": "nonsense"},
        ):
            with pytest.raises(ValueError):
                from_dict(bad)
        # no coercion: each field is a JSON value of its own kind, and the
        # error names it
        inner = {"type": "coeffs", "values": [[1.0, 0.0]]}
        for bad, field in (
            ({"type": "power_decay", "alpha": 2.0, "count": 2.9}, "count"),
            ({"type": "power_decay", "alpha": 2.0, "count": True}, "count"),
            ({"type": "power_decay", "alpha": 2.0, "count": "3"}, "count"),
            ({"type": "power_decay", "alpha": "2", "count": 3}, "alpha"),
            ({"type": "power_decay", "alpha": True, "count": 3}, "alpha"),
            ({"type": "coeffs", "values": [["1", 0.0]]}, "values"),
            ({"type": "coeffs", "values": [[1.0, 0.0], [1.0, False]]},
             "values"),
            ({"type": "coeffs", "values": [[10 ** 400, 0.0]]}, "values"),
            ({"type": "truncate", "inner": inner, "n": 1.5}, "n"),
            ({"type": "truncate", "inner": inner, "n": True}, "n"),
            ({"type": "truncate", "inner": [inner], "n": 1}, "inner"),
            ({"type": 3}, "type"),
        ):
            with pytest.raises(ValueError, match=re.escape(repr(field))):
                from_dict(bad)

    @pytest.mark.parametrize("bad", [
        {"type": "coeffs", "values": [[float("nan"), 0.0], [1.0, 0.0]]},
        {"type": "coeffs", "values": [[1.0, float("inf")]]},
        {"type": "coeffs", "values": [[-float("inf"), 0.0]]},
        {"type": "power_decay", "alpha": float("inf"), "count": 4},
        {"type": "power_decay", "alpha": float("nan"), "count": 4},
        {"type": "power_decay", "alpha": 2.0, "count": float("inf")},
        {"type": "truncate", "n": float("inf"),
         "inner": {"type": "coeffs", "values": [[1.0, 0.0]]}},
        {"type": "truncate", "n": 2,
         "inner": {"type": "coeffs", "values": [[float("nan"), 0.0]]}},
    ])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            from_dict(bad)

    def test_dict_shape(self):
        data = to_dict(coeffs_spec([1.0 + 2.0j]))
        assert data == {"type": "coeffs", "values": [[1.0, 2.0]]}
