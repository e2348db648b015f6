"""Unit tests for the RNG registry, the inlined log-normal draw and the
shared request-hash function."""

import math
import random

import pytest

from repro.sim.rng import RngRegistry, lognormal, request_hash_unit


def test_same_seed_same_streams():
    a = RngRegistry(42).stream("x")
    b = RngRegistry(42).stream("x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_give_independent_streams():
    registry = RngRegistry(42)
    a = registry.stream("a")
    b = registry.stream("b")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_is_cached():
    registry = RngRegistry(0)
    assert registry.stream("x") is registry.stream("x")


def test_different_seeds_differ():
    a = RngRegistry(1).stream("x")
    b = RngRegistry(2).stream("x")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_consuming_one_stream_does_not_perturb_another():
    registry = RngRegistry(7)
    control = RngRegistry(7)
    registry.stream("noise").random()  # consume from an unrelated stream
    assert registry.stream("data").random() == control.stream("data").random()


def test_contains():
    registry = RngRegistry(0)
    assert "x" not in registry
    registry.stream("x")
    assert "x" in registry


def test_spawn_derives_independent_registry():
    parent = RngRegistry(5)
    child = parent.spawn("child")
    assert child.root_seed != parent.root_seed
    assert child.stream("x").random() != parent.stream("x").random()


def test_request_hash_unit_in_unit_interval():
    for cid in range(50):
        for onr in range(1, 5):
            value = request_hash_unit(cid, onr)
            assert 0.0 <= value < 1.0


def test_request_hash_unit_deterministic_across_calls():
    assert request_hash_unit(3, 17, salt=9) == request_hash_unit(3, 17, salt=9)


def test_request_hash_unit_depends_on_all_inputs():
    base = request_hash_unit(1, 1, 0)
    assert request_hash_unit(2, 1, 0) != base
    assert request_hash_unit(1, 2, 0) != base
    assert request_hash_unit(1, 1, 1) != base


def test_request_hash_unit_roughly_uniform():
    values = [request_hash_unit(cid, onr) for cid in range(100) for onr in range(1, 11)]
    mean = sum(values) / len(values)
    assert 0.45 < mean < 0.55


@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.25, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 7, 2027])
def test_lognormal_is_bit_identical_to_the_stdlib(seed, sigma):
    mu = math.log(100e-6)
    stdlib = random.Random(seed)
    inlined = random.Random(seed)
    expected = [stdlib.lognormvariate(mu, sigma) for _ in range(2000)]
    assert [lognormal(inlined.random, mu, sigma) for _ in range(2000)] == expected
    # Same uniforms consumed: the streams stay in lockstep afterwards.
    assert inlined.getstate() == stdlib.getstate()
