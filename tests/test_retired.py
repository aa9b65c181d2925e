"""The retired list-based twins: bare names that only raise.

``bench/spans.py`` resolves these names in its ``TARGETS`` and
``REQUIRED_BINDINGS``, so they stay defined in their modules, but each
is a function of its own that raises ``NotImplementedError`` naming the
entry point that does its work.  No command, session op or test calls
them; they go once the span table drops them (ROADMAP items 1 and 3).
"""

import importlib

import pytest

import zakfiber.decomp
import zakfiber.frames
import zakfiber.ranges
import zakfiber.translation

# (module bench/spans.py binds the name from, name, survivor)
RETIRED = [
    ("frames", "frame_check_fibers", "frames.frame_check"),
    ("frames", "riesz_check_fibers", "frames.riesz_check"),
    ("ranges", "range_from_fibers", "ranges.range_from_generators"),
    ("decomp", "parseval_decompose_fibers", "decomp.parseval_decompose"),
    ("decomp", "verify_decomposition_fibers", "decomp.verify_decomposition"),
    ("oracle", "dense_frame_bounds", "oracle.frame_bounds_of_matrix"),
    ("oracle", "dense_riesz_bounds", "oracle.riesz_bounds_of_matrix"),
    ("oracle", "brute_membership", "oracle.membership_of_matrix"),
    ("translation", "ti_analyze",
     "ranges.range_from_generators and frames.frame_check"),
]


def retired(module, name):
    return getattr(importlib.import_module(f"zakfiber.{module}"), name)


@pytest.mark.parametrize("module, name, survivor", RETIRED,
                         ids=[name for _, name, _ in RETIRED])
def test_retired_name_raises_naming_its_survivor(module, name, survivor):
    fn = retired(module, name)
    assert callable(fn) and fn.__name__ == name
    for args, kwargs in (((), {}), ((None, []), {"tolerance": 1e-10})):
        with pytest.raises(NotImplementedError) as e:
            fn(*args, **kwargs)
        assert str(e.value) == f"retired: use {survivor}"


def test_each_retired_name_is_a_function_of_its_own():
    # the span tracer wraps a function under every name bound to it, so a
    # shared stub would carry another name's span
    fns = [retired(module, name) for module, name, _ in RETIRED]
    assert len({id(fn) for fn in fns}) == len(RETIRED)


def test_bench_bindings_are_the_retired_functions():
    assert zakfiber.decomp.range_from_fibers is \
        zakfiber.ranges.range_from_fibers
    assert zakfiber.translation.range_from_fibers is \
        zakfiber.ranges.range_from_fibers
    assert zakfiber.translation.frame_check_fibers is \
        zakfiber.frames.frame_check_fibers
    assert zakfiber.decomp.membership_fibers is \
        zakfiber.ranges.membership_fibers


def test_fiber_system_is_gone():
    assert not hasattr(zakfiber.ranges, "fiber_system")
