"""Toy multimodal LM: frozen patch encoding, channel alignment, sequence
assembly, causal structure, and the captioning objective."""

import numpy as np
import pytest

from fusedet import tensor as T
from fusedet.mllm import MiniMllm, MllmConfig, VisionEncoder
from fusedet.tensor import ConfigurationError, Tensor, UsageError


def make_mllm(seed=0, shuffle_r=4, **kw):
    """An LM whose 8x8 patch grid aligns to 2x2 tokens."""
    cfg = MllmConfig(shuffle_r=shuffle_r, **kw)
    return MiniMllm(cfg, np.random.default_rng(seed))


def rand_images(rng, b=2, canvas=32):
    return rng.uniform(0.0, 1.0, (b, 3, canvas, canvas))


def aligned(mllm, img):
    return mllm.align_vision(mllm.encode_image(T.constant(img)))


class TestConfigArithmetic:
    def test_default_derived_sizes(self):
        cfg = MllmConfig()
        assert cfg.d_patch == 48            # 3 * 4 * 4
        assert cfg.grid == (8, 8)           # 32 / 4
        assert cfg.aligned_grid == (4, 4)   # 8 / 2
        assert cfg.l_v == 16

    def test_rejects_indivisible(self):
        with pytest.raises(ConfigurationError):
            MllmConfig(canvas=30)
        with pytest.raises(ConfigurationError):
            MllmConfig(shuffle_r=3)
        with pytest.raises(ConfigurationError):
            MllmConfig(heads=5)


class TestVisionEncoder:
    def test_frozen_and_orthogonal(self):
        enc = make_mllm().vision
        assert not enc.weight.requires_grad and not enc.bias.requires_grad
        w = enc.weight.data
        assert np.allclose(w @ w.T, np.eye(w.shape[0]), atol=1e-10)

    def test_output_shape(self):
        mllm = make_mllm()
        imgs = rand_images(np.random.default_rng(1))
        out = mllm.encode_image(T.constant(imgs))
        assert out.shape == (2, 64, 48)

    def test_patch_locality(self):
        """Each token depends only on its own 4x4 patch: swapping two patches
        in the image swaps exactly the two corresponding tokens."""
        mllm = make_mllm()
        rng = np.random.default_rng(2)
        img = rand_images(rng, b=1)
        swapped = img.copy()
        # patch (row 0, col 1) <-> patch (row 2, col 5) in the 8x8 grid
        a = (slice(None), slice(None), slice(0, 4), slice(4, 8))
        b = (slice(None), slice(None), slice(8, 12), slice(20, 24))
        swapped[a], swapped[b] = img[b], img[a]
        t0 = mllm.encode_image(T.constant(img)).data[0]
        t1 = mllm.encode_image(T.constant(swapped)).data[0]
        ia, ib = 0 * 8 + 1, 2 * 8 + 5
        assert np.allclose(t1[ia], t0[ib]) and np.allclose(t1[ib], t0[ia])
        rest = [i for i in range(64) if i not in (ia, ib)]
        assert np.allclose(t1[rest], t0[rest])

    def test_norm_preserved_per_patch(self):
        """Orthogonal map: token norm equals patch pixel norm."""
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(3), b=1)
        tok = mllm.encode_image(T.constant(img)).data[0]
        patch = img[0, :, 0:4, 0:4].reshape(-1)
        assert np.linalg.norm(tok[0]) == pytest.approx(np.linalg.norm(patch))


class TestAlignment:
    def test_regroup_shape_and_multiset(self):
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(4), b=1)
        tok = mllm.encode_image(T.constant(img))
        grp = mllm.regroup_patches(tok)
        assert grp.shape == (1, 4, 768)
        assert np.allclose(np.sort(grp.data.ravel()), np.sort(tok.data.ravel()))

    def test_regroup_gathers_quadrants(self):
        """Aligned token q must contain exactly the 4x4 block of patch tokens
        from quadrant q of the 8x8 grid."""
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(5), b=1)
        tok = mllm.encode_image(T.constant(img)).data[0]   # [64, 48]
        grp = mllm.regroup_patches(
            mllm.encode_image(T.constant(img))).data[0]    # [4, 768]
        for q, (r0, c0) in enumerate([(0, 0), (0, 4), (4, 0), (4, 4)]):
            members = [tok[(r0 + i) * 8 + (c0 + j)]
                       for i in range(4) for j in range(4)]
            want = np.sort(np.concatenate(members))
            assert np.allclose(np.sort(grp[q]), want)

    def test_align_runs_projector(self):
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(8), b=2)
        tok = mllm.encode_image(T.constant(img))
        vis = mllm.align_vision(tok)
        assert vis.shape == (2, 4, 64)
        want = mllm.projector(mllm.regroup_patches(tok))
        assert np.array_equal(vis.data, want.data)


class TestSequenceAssembly:
    def test_layout_tags_and_spans(self):
        """[system | vision | text] at fixed offsets: ``sys_len`` system
        rows, one row per aligned vision token, then the text."""
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(9), b=1)
        ids = np.array([[5, 6, 7]])
        vis = aligned(mllm, img)
        x = mllm.embed_from_aligned(vis, ids)
        assert x.shape == (1, 2 + 4 + 3, 64)
        assert np.array_equal(x.data[0, :2], mllm.sys_embed.data)
        assert np.array_equal(x.data[:, 2:6], vis.data)
        assert np.array_equal(x.data[0, 6:], mllm.tok_embed.data[[5, 6, 7]])

    def test_text_free_sequence(self):
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(10), b=1)
        x = mllm.embed_from_aligned(aligned(mllm, img), None)
        assert x.shape == (1, 6, 64)

    def test_embedding_rows_match_table(self):
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(11), b=1)
        ids = np.array([[4, 9]])
        x = mllm.embed_from_aligned(aligned(mllm, img), ids)
        assert np.array_equal(x.data[0, 6], mllm.tok_embed.data[4])
        assert np.array_equal(x.data[0, 0], mllm.sys_embed.data[0])

    def test_forward_stops_after_upto_layer(self):
        """``upto_layer=k`` returns the state after blocks 1..k, run here by
        hand; k = 0 returns the input itself, and the default is k = n."""
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(12), b=1)
        x = mllm.embed_from_aligned(aligned(mllm, img), np.array([[5, 6]]))
        assert mllm.forward(x, upto_layer=0) is x
        mask = mllm.sequence_mask(x.shape[1], None)
        want = x
        for k, block in enumerate(mllm.blocks, start=1):
            want = block(want, mask=mask)
            got = mllm.forward(x, upto_layer=k)
            assert np.array_equal(got.data, want.data)
        assert np.array_equal(mllm.forward(x).data, want.data)


class TestCausalStructure:
    def test_prefix_states_are_bit_identical(self):
        """Appending text tokens must not change any earlier hidden state."""
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(15), b=1)
        short_ids = np.array([[5, 6]])
        long_ids = np.array([[5, 6, 7, 8]])
        xs = mllm.embed_from_aligned(aligned(mllm, img), short_ids)
        xl = mllm.embed_from_aligned(aligned(mllm, img), long_ids)
        for k in range(mllm.cfg.n + 1):
            a = mllm.forward(xs, upto_layer=k)
            b = mllm.forward(xl, upto_layer=k)
            assert np.array_equal(a.data, b.data[:, : a.shape[1]])

    def test_padded_text_keys_are_inert(self):
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(16), b=1)
        ids = np.array([[5, 6, 7]])
        valid = np.array([[True, True, False]])
        x = mllm.embed_from_aligned(aligned(mllm, img), ids)
        base = mllm.forward(x, text_valid=valid)
        ids2 = np.array([[5, 6, 60]])  # rewrite the padded slot
        x2 = mllm.embed_from_aligned(aligned(mllm, img), ids2)
        again = mllm.forward(x2, text_valid=valid)
        assert np.allclose(base.data[:, :8], again.data[:, :8])


class TestLmLoss:
    def test_zeroed_head_gives_log_vocab(self):
        mllm = make_mllm()
        mllm.lm_head.zero_()
        img = rand_images(np.random.default_rng(17), b=2)
        ids = np.array([[5, 6, 7], [8, 9, 10]])
        loss = mllm.lm_loss_from_aligned(aligned(mllm, img), ids,
                                         np.ones(ids.shape, dtype=bool))
        assert float(loss.data) == pytest.approx(np.log(64), abs=1e-12)

    def test_padding_excluded_from_mean(self):
        """A padded position with an absurd target must not move the loss."""
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(18), b=1)
        valid = np.array([[True, True, False]])
        a = mllm.lm_loss_from_aligned(aligned(mllm, img),
                                      np.array([[5, 6, 7]]), valid)
        b = mllm.lm_loss_from_aligned(aligned(mllm, img),
                                      np.array([[5, 6, 63]]), valid)
        assert float(a.data) == pytest.approx(float(b.data), abs=1e-12)

    def test_empty_text_rejected(self):
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(19), b=1)
        with pytest.raises(ConfigurationError):
            mllm.lm_loss_from_aligned(aligned(mllm, img),
                                      np.zeros((1, 0), dtype=np.intp),
                                      np.ones((1, 0), dtype=bool))

    def test_teacher_forcing_alignment(self):
        """Masking all-but-one target isolates the prediction made from the
        state right before that token."""
        mllm = make_mllm(seed=3)
        img = rand_images(np.random.default_rng(20), b=1)
        ids = np.array([[5, 6, 7, 8]])
        only_last = np.array([[False, False, False, True]])
        x = mllm.embed_from_aligned(aligned(mllm, img), ids)
        # the valid mask doubles as the attention key mask, so the reference
        # forward must use it too
        h = mllm.forward(x, text_valid=only_last)
        logits = mllm.lm_head(mllm.ln_f(h))
        t0 = 2 + 4                                 # sys_len + aligned tokens
        z = logits.data[0, t0 + 2]                 # state holding tokens ..7
        lse = np.log(np.exp(z - z.max()).sum()) + z.max()
        want = lse - z[8]
        got = mllm.lm_loss_from_aligned(aligned(mllm, img), ids, only_last)
        assert float(got.data) == pytest.approx(want, abs=1e-10)


class TestAdapterTaps:
    def test_layer_zero_is_the_embedding(self):
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(21), b=1)
        e_v, e_t = mllm.hidden_from_aligned(aligned(mllm, img), 0)
        x = mllm.embed_from_aligned(aligned(mllm, img), None)
        assert e_t is None
        assert np.array_equal(e_v.data, x.data[:, 2:6])

    def test_deeper_taps_match_full_forward(self):
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(22), b=1)
        ids = np.array([[5, 6]])
        e_v, e_t = mllm.hidden_from_aligned(aligned(mllm, img), 3, ids)
        x = mllm.embed_from_aligned(aligned(mllm, img), ids)
        h3 = mllm.forward(x, upto_layer=3)
        assert np.array_equal(e_v.data, h3.data[:, 2:6])
        assert np.array_equal(e_t.data, h3.data[:, 6:8])

    def test_out_of_range_layer(self):
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(23), b=1)
        with pytest.raises(ConfigurationError):
            mllm.hidden_from_aligned(aligned(mllm, img), 5)

    def test_text_free_tap_ignores_text_weights(self):
        """Arch-IV-style taps must not depend on the token embedding table."""
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(24), b=1)
        before, _ = mllm.hidden_from_aligned(aligned(mllm, img), 2)
        mllm.tok_embed.data = mllm.tok_embed.data + 100.0
        after, _ = mllm.hidden_from_aligned(aligned(mllm, img), 2)
        assert np.array_equal(before.data, after.data)

    def test_text_mask_without_text_rejected(self):
        """A text mask with no text would mask the trailing vision positions
        as padded text keys."""
        mllm = make_mllm()
        img = rand_images(np.random.default_rng(25), b=1)
        with pytest.raises(UsageError, match="text_valid without text_ids"):
            mllm.hidden_from_aligned(aligned(mllm, img), 2,
                                     text_valid=np.array([[True, False]]))
