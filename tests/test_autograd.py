import numpy as np
import pytest

from textidrec.autograd import Tensor, concat, stack_rows
from textidrec.model import _attention, _chain_layout, _feed_forward, expected_embedding_rows


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return grad


@pytest.mark.parametrize("op_name", ["matmul", "add_broadcast", "mul", "softmax",
                                     "log_softmax", "gelu", "getitem", "concat",
                                     "mean", "pow", "div", "swapaxes", "layer_norm",
                                     "expected_embedding_rows", "attention", "feed_forward"])
def test_op_gradients_match_finite_differences(op_name):
    rng = np.random.default_rng(hash(op_name) % 2**32)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    v = rng.normal(size=(4,))
    w = rng.normal(size=(4,))
    c = rng.normal(size=(2, 3, 4))
    weights = rng.normal(size=(2, 3, 4))
    s = rng.normal(size=(4, 4, 4))

    def build():
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        tv = Tensor(v, requires_grad=True)
        tw = Tensor(w, requires_grad=True)
        tc = Tensor(c, requires_grad=True)
        ts = Tensor(s, requires_grad=True)
        if op_name == "matmul":
            out = (ta @ tb).sum()
        elif op_name == "add_broadcast":
            out = ((ta + tv) * 2.0).sum()
        elif op_name == "mul":
            out = (ta * (ta + 1.0)).sum()
        elif op_name == "softmax":
            out = (ta.softmax(axis=-1) * Tensor(np.arange(4.0))).sum()
        elif op_name == "log_softmax":
            out = ta.log_softmax(axis=-1)[(np.arange(3), np.array([0, 1, 2]))].sum()
        elif op_name == "gelu":
            out = ta.gelu().sum()
        elif op_name == "getitem":
            out = (ta[1:, :2] * 3.0).sum()
        elif op_name == "concat":
            out = concat([ta, ta * 2.0], axis=0).sum()
        elif op_name == "mean":
            out = (ta.mean(axis=-1, keepdims=True) * ta).sum()
        elif op_name == "pow":
            out = (((ta * ta) + 0.5) ** 0.5).sum()
        elif op_name == "swapaxes":
            out = ((tc.swapaxes(0, 1) @ tb).sum()
                   + (tc.swapaxes(0, 2) * weights.swapaxes(0, 2)).sum())
        elif op_name == "layer_norm":
            out = (tc.layer_norm(tv, tw, 1e-6) * weights).sum()
        elif op_name == "expected_embedding_rows":
            out = (expected_embedding_rows(ta, tb) * weights[0, :, :2]).sum()
        elif op_name == "attention":
            pt = {f"att_w{x}": ts[i] for i, x in enumerate("qkvo")}
            out = ((_attention(pt, "att", ta, ta, 2, mask=_chain_layout(3)[1]) * weights[0]).sum()
                   + (_attention(pt, "att", ta, tc.reshape(6, 4), 2) * weights[1]).sum())
        elif op_name == "feed_forward":
            pt = {"ff_w1": ts[0], "ff_b1": tv, "ff_w2": ts[1], "ff_b2": tw}
            out = (_feed_forward(pt, "ff", ta) * weights[0]).sum()
        else:
            out = (ta / ((ta * ta) + 1.0)).sum()
        return (ta, tb, tv, tw, tc, ts), out

    inputs, out = build()
    out.backward()
    for tensor, arr in zip(inputs, (a, b, v, w, c, s)):
        if tensor.grad is None:
            continue
        fd = numeric_grad(lambda: build()[1].data.item(), arr)
        assert np.allclose(tensor.grad, fd, rtol=1e-5, atol=1e-7), op_name


def composite_layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Layer norm built from elementary ops: the reference for `layer_norm`."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / ((var + eps) ** 0.5) * gain + bias


@pytest.mark.parametrize("shape", [(5,), (3, 8), (2, 3, 8)])
def test_layer_norm_equals_composite(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.normal(size=shape) * 3.0 + 1.0
    gain, bias = rng.normal(size=shape[-1:]), rng.normal(size=shape[-1:])
    weights = rng.normal(size=shape)
    grads = []
    for norm in (Tensor.layer_norm, composite_layer_norm):
        tensors = [Tensor(arr, requires_grad=True) for arr in (x, gain, bias)]
        out = norm(*tensors, 1e-6)
        (out * weights).sum().backward()
        grads.append((out.data, [t.grad for t in tensors]))
    (fused, fused_grads), (reference, reference_grads) = grads
    assert np.array_equal(fused, reference)
    for got, want in zip(fused_grads, reference_grads):
        assert np.max(np.abs(got - want)) < 1e-12


def test_broadcast_operand_gets_grad_of_its_own_shape():
    row = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
    full = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ((row + full) * 2.0).sum().backward()
    assert row.grad.shape == (1, 3)
    assert np.array_equal(row.grad, [[4.0, 4.0, 4.0]])
    assert np.array_equal(full.grad, np.full((2, 3), 2.0))


def test_first_gradient_write_does_not_alias_the_upstream_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    doubled = x + x  # x receives doubled.grad twice
    (doubled * 1.0).sum().backward()
    assert np.array_equal(doubled.grad, np.ones(3))
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_shared_upstream_gradient_is_never_written_in_place():
    x = Tensor(np.ones(3), requires_grad=True)
    left, right = x.reshape(3), x.reshape(3)
    total = left + right  # `left` and `right` receive the same gradient array
    (total * np.array([1.0, 2.0, 3.0])).sum().backward()
    assert left.grad is right.grad
    for shared in (total.grad, left.grad):
        assert np.array_equal(shared, [1.0, 2.0, 3.0])
    assert np.array_equal(x.grad, [2.0, 4.0, 6.0])


def test_repeated_backward_is_idempotent():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    assert np.array_equal(x.grad, first)


def test_unused_parameter_gets_no_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    (x * 2.0).sum().backward()
    assert unused.grad is None


def test_no_graph_without_requires_grad():
    x = Tensor(np.ones((2, 2)))
    y = (x @ x).softmax(axis=-1)
    assert not y.requires_grad and y._backward is None


def test_stack_rows_routes_gradients():
    rows = [Tensor(np.array([1.0, 2.0]), requires_grad=True) for _ in range(3)]
    out = stack_rows(rows)
    assert out.data.shape == (3, 2)
    (out * np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])).sum().backward()
    assert np.array_equal(rows[0].grad, [1.0, 0.0])
    assert np.array_equal(rows[2].grad, [2.0, 2.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()
