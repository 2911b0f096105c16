"""Finite-difference verification of every differentiable path.

The cases are ``fusedet.verify.CASES``, the catalogue ``fusedet gradcheck``
runs: each ``op/`` and ``layer/`` case over 20 seeds, each ``composed/``
case at one.  Most ``op/`` cases run under the test names they had before
the catalogue held them, ``ELSEWHERE`` names the cases whose tests live
beside their modules' other tests, and ``test_catalogue_case`` runs every
other case.  The tests at the end check the oracle itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from fusedet import tensor as T
from fusedet.tensor import Tensor, UsageError, finite_diff_check
from fusedet.verify import CASES, GRADCHECK_TOL, check_case

BUILDS = dict(CASES)


def check(name):
    for seed in range(1 if name.startswith("composed/") else 20):
        err = check_case(BUILDS[name], seed)
        assert err < GRADCHECK_TOL, f"{name} seed {seed}: {err}"


UNARY = {"tanh": "op/tanh", "sigmoid": "op/sigmoid",
         "gelu": "op/gelu", "softmax": "op/softmax",
         "reshape": "op/reshape", "transpose": "op/transpose",
         "slice": "op/slice",
         "sum_axis": "op/sum-axis", "mean_axis": "op/mean-axis",
         "square": "op/power-2"}
BINARY = {"add": "op/add", "sub": "op/sub", "mul": "op/mul",
          "matmul": "op/matmul", "add_broadcast": "op/add-broadcast",
          "mul_broadcast": "op/mul-broadcast",
          "matmul_batched": "op/matmul-batched"}
LINEAR = {"2d-bias": "op/linear-2d-bias", "3d-bias": "op/linear-3d-bias"}
GATED = {"two-segments": "op/attention-gated-segments",
         "gated-only": "op/attention-gated-only"}
SINGLE = ["op/conv2d", "op/rope", "op/pixel_unshuffle",
          "op/concat", "op/embedding", "op/softmax-masked",
          "op/softmax-matmul", "op/layer_norm", "op/attention-masked",
          "op/attention-rope-offsets", "op/cross-entropy-masked"]
# run by test_layers.py, test_adapter.py and test_detector.py
ELSEWHERE = ["layer/layernorm", "layer/transformer-block",
             "composed/adapter-injection", "composed/adapter-vision",
             "composed/detection-loss"]
NAMED = {*UNARY.values(), *BINARY.values(), *LINEAR.values(),
         *GATED.values(), *SINGLE, *ELSEWHERE}
OTHERS = [name for name, _ in CASES if name not in NAMED]


@pytest.mark.parametrize("name", OTHERS)
def test_catalogue_case(name):
    check(name)


@pytest.mark.parametrize("op", UNARY)
def test_unary_ops(op):
    check(UNARY[op])


@pytest.mark.parametrize("op", BINARY)
def test_binary_ops(op):
    check(BINARY[op])


@pytest.mark.parametrize("kind", LINEAR)
def test_linear_grads(kind):
    check(LINEAR[kind])


@pytest.mark.parametrize("kind", GATED)
def test_attention_gated_segment_grads(kind):
    check(GATED[kind])


def test_conv2d_grads():
    check("op/conv2d")


def test_rope_grads():
    check("op/rope")


def test_pixel_unshuffle_grads():
    check("op/pixel_unshuffle")


def test_concat_grads():
    check("op/concat")


def test_embedding_grads():
    check("op/embedding")


def test_masked_softmax_grads():
    check("op/softmax-masked")


def test_composed_softmax_matmul():
    check("op/softmax-matmul")


def test_layer_norm_grads():
    check("op/layer_norm")


def test_attention_masked_grads():
    check("op/attention-masked")


def test_attention_rope_offset_grads():
    check("op/attention-rope-offsets")


def test_masked_cross_entropy_grads():
    check("op/cross-entropy-masked")


def test_every_named_case_is_in_the_catalogue():
    assert NAMED <= set(BUILDS)


def test_quadratic_is_nearly_exact():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal(4), requires_grad=True)
    err = finite_diff_check(lambda: T.tsum(T.mul(x, x)), [x])
    assert err < 1e-8


def test_empty_param_set_rejected():
    with pytest.raises(UsageError):
        finite_diff_check(lambda: T.tsum(Tensor(np.ones(1))), [])
