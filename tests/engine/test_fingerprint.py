"""Unit tests for content fingerprints of instances and solve requests."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro import MaxMinLPBuilder, fingerprint_instance, fingerprint_request
from repro.engine import canonical_json, fingerprint_data


def tiny_problem():
    builder = MaxMinLPBuilder()
    builder.set_consumption("i", "v1", 1.0)
    builder.set_consumption("i", "v2", 1.0)
    builder.set_benefit("k", "v1", 1.0)
    builder.set_benefit("k", "v2", 1.0)
    return builder.build()


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_digest_matches_canonical_form(self):
        assert fingerprint_data({"a": 1}) == fingerprint_data({"a": 1})
        assert fingerprint_data({"a": 1}) != fingerprint_data({"a": 2})


class TestInstanceFingerprint:
    def test_equal_instances_equal_fingerprints(self, tiny_instance):
        assert fingerprint_instance(tiny_instance) == fingerprint_instance(
            tiny_problem()
        )

    def test_construction_order_does_not_matter(self):
        forward = MaxMinLPBuilder()
        forward.set_consumption("i", "v1", 1.0)
        forward.set_consumption("i", "v2", 1.0)
        forward.set_benefit("k", "v1", 1.0)
        forward.set_benefit("k", "v2", 1.0)
        backward = MaxMinLPBuilder()
        backward.add_agent("v1").add_agent("v2")
        backward.set_benefit("k", "v2", 1.0)
        backward.set_benefit("k", "v1", 1.0)
        backward.set_consumption("i", "v2", 1.0)
        backward.set_consumption("i", "v1", 1.0)
        assert fingerprint_instance(forward.build()) == fingerprint_instance(
            backward.build()
        )

    def test_coefficient_changes_change_the_fingerprint(self):
        base = tiny_problem()
        perturbed = MaxMinLPBuilder()
        perturbed.set_consumption("i", "v1", 1.0)
        perturbed.set_consumption("i", "v2", 2.0)
        perturbed.set_benefit("k", "v1", 1.0)
        perturbed.set_benefit("k", "v2", 1.0)
        assert fingerprint_instance(base) != fingerprint_instance(perturbed.build())

    def test_agent_order_is_content(self):
        """Column order fixes the LP handed to the backend, so it must hash."""
        ab = MaxMinLPBuilder()
        ab.add_agent("v1").add_agent("v2")
        ab.set_consumption("i", "v1", 1.0)
        ab.set_consumption("i", "v2", 1.0)
        ab.set_benefit("k", "v1", 1.0)
        ab.set_benefit("k", "v2", 1.0)
        ba = MaxMinLPBuilder()
        ba.add_agent("v2").add_agent("v1")
        ba.set_consumption("i", "v1", 1.0)
        ba.set_consumption("i", "v2", 1.0)
        ba.set_benefit("k", "v1", 1.0)
        ba.set_benefit("k", "v2", 1.0)
        assert fingerprint_instance(ab.build()) != fingerprint_instance(ba.build())

    def test_tuple_identifiers_supported(self, grid4x4):
        assert len(fingerprint_instance(grid4x4)) == 64

    def test_unstable_identifier_types_rejected(self):
        """Objects with address-bearing reprs must fail loudly, not alias."""
        from repro import MaxMinLP

        class Opaque:
            pass

        agent = Opaque()
        problem = MaxMinLP(
            [agent], {("i", agent): 1.0}, {("k", agent): 1.0}, validate=False
        )
        with pytest.raises(TypeError, match="cannot fingerprint identifier"):
            fingerprint_instance(problem)

    def test_stable_across_process_restarts(self):
        """The digest is pure content: a fresh interpreter reproduces it.

        The literal below pins the version-2 (raw CSR buffer) encoding; if
        it ever changes, bump FINGERPRINT_VERSION instead of updating the
        literal blindly.
        """
        expected = "96c349dbca6383b324cf61f41fae38493a91c2ae07c009754094ed3af14c8b85"
        assert fingerprint_instance(tiny_problem()) == expected
        script = (
            "from repro import MaxMinLPBuilder, fingerprint_instance\n"
            "b = MaxMinLPBuilder()\n"
            "b.set_consumption('i', 'v1', 1.0)\n"
            "b.set_consumption('i', 'v2', 1.0)\n"
            "b.set_benefit('k', 'v1', 1.0)\n"
            "b.set_benefit('k', 'v2', 1.0)\n"
            "print(fingerprint_instance(b.build()))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == expected


class TestRequestFingerprint:
    def test_depends_on_algorithm_backend_and_params(self):
        problem = tiny_problem()
        base = fingerprint_request(problem, "local_lp", backend="scipy")
        assert base == (
            "c6789511d9b2ee79903b96ff0d50c7f17a3be956b42d5877c4e5ace8424ecd76"
        )
        assert fingerprint_request(problem, "maxmin_exact", backend="scipy") != base
        assert fingerprint_request(problem, "local_lp", backend="other") != base
        assert (
            fingerprint_request(problem, "local_lp", backend="scipy", params={"R": 2})
            != base
        )

    def test_precomputed_instance_fingerprint_shortcut(self):
        problem = tiny_problem()
        inst = fingerprint_instance(problem)
        assert fingerprint_request(
            None, "local_lp", backend="scipy", instance_fingerprint=inst
        ) == fingerprint_request(problem, "local_lp", backend="scipy")

    def test_requires_problem_or_fingerprint(self):
        with pytest.raises(ValueError):
            fingerprint_request(None, "local_lp", backend="scipy")
