"""End-to-end tests for weighted sharing (paper §2.2).

"There may be occasions where it is deemed fairer to give more resources to
one application over another ... This can easily be achieved by changing the
sharing ratio."
"""

import numpy as np
import pytest

from repro.accelos import AccelOSRuntime
from repro.cl import NDRange, nvidia_k20m
from repro.errors import SchedulingError
from repro.kernelc import types as T

SOURCE = """
kernel void work(global float* a)
{
    size_t g = get_global_id(0);
    a[g] = a[g] + 1.0f;
}
"""


def _submit(runtime, app_id, n=16384, wg=256):
    app = runtime.session(app_id)
    program = app.create_program(SOURCE).build()
    kernel = program.create_kernel("work")
    buf = app.create_buffer(T.FLOAT, n)
    queue = app.create_queue()
    queue.enqueue_write_buffer(buf, np.zeros(n, dtype=np.float32))
    kernel.set_args(buf)
    queue.enqueue_nd_range(kernel, NDRange((n,), (wg,)))
    return buf, queue


def test_weighted_drain_allocates_proportionally():
    runtime = AccelOSRuntime(nvidia_k20m())
    _submit(runtime, "premium")
    _submit(runtime, "basic")
    plans = runtime.drain(share_ratio=[3.0, 1.0])
    premium, basic = plans
    assert premium.physical_groups >= 2 * basic.physical_groups
    total = sum(p.physical_groups * p.requirements.wg_threads for p in plans)
    assert total <= runtime.context.device.max_threads


def test_weighted_drain_still_correct():
    runtime = AccelOSRuntime(nvidia_k20m())
    buf_a, queue_a = _submit(runtime, "a")
    buf_b, queue_b = _submit(runtime, "b")
    runtime.drain(share_ratio=[4.0, 1.0])
    assert (queue_a.enqueue_read_buffer(buf_a) == 1.0).all()
    assert (queue_b.enqueue_read_buffer(buf_b) == 1.0).all()


def test_equal_ratio_matches_default():
    runtime_default = AccelOSRuntime(nvidia_k20m())
    _submit(runtime_default, "x")
    _submit(runtime_default, "y")
    default_plans = runtime_default.drain()

    runtime_equal = AccelOSRuntime(nvidia_k20m())
    _submit(runtime_equal, "x")
    _submit(runtime_equal, "y")
    equal_plans = runtime_equal.drain(share_ratio=[1.0, 1.0])

    assert [p.physical_groups for p in default_plans] == \
        [p.physical_groups for p in equal_plans]


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_drain_rejects_non_finite_share_ratio(weight):
    """The ratio comes from outside the program: a NaN or infinite weight
    is a scheduling error, not a crash in the allocator's arithmetic."""
    runtime = AccelOSRuntime(nvidia_k20m())
    _submit(runtime, "a")
    _submit(runtime, "b")
    with pytest.raises(SchedulingError, match="finite positive weight"):
        runtime.drain(share_ratio=[1.0, weight])
